package solver

// Ite builds cond ? then : else, folding constant conditions.
func Ite(cond, then, els *Expr) *Expr {
	if cond.Op == OpConst {
		if cond.V != 0 {
			return then
		}
		return els
	}
	return &Expr{Op: OpIte, A: cond, B: then, C: els}
}
