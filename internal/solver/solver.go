// Package solver provides the bitvector expression language and
// satisfiability checker used by the symbolic executor — this repository's
// substitute for Z3 in the paper's exception-filter analysis.
//
// Expressions are immutable DAGs over 64-bit values; predicates evaluate to
// 0 or 1. Satisfiability is decided by bounded small-domain enumeration: the
// candidate values for each symbol are the constants appearing in the
// constraints, their ±1 neighbours, and a handful of distinguished values
// (0, 1, all-ones, sign bit). This procedure is *complete* for the
// constraint family real exception filters compile to — conjunctions and
// disjunctions of equality, inequality and masked-bit tests against
// constants — because any satisfiable such system is satisfied at one of the
// boundary values the enumeration covers. TestSolveMatchesBruteForce
// cross-checks this claim against exhaustive 8-bit enumeration.
package solver

import (
	"fmt"
	"sort"
)

// Op enumerates expression operators.
type Op uint8

// Operators. Arithmetic/bitwise produce 64-bit values; predicates produce
// 0 or 1.
const (
	OpConst Op = iota + 1
	OpSym

	OpAdd
	OpSub
	OpMul
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr

	OpNot // unary bitwise complement
	OpNeg // unary two's complement

	OpEq
	OpNe
	OpUlt
	OpUle
	OpSlt
	OpSle

	OpIte // if-then-else: Cond ? Then : Else
)

func (o Op) String() string {
	switch o {
	case OpConst:
		return "const"
	case OpSym:
		return "sym"
	case OpAdd:
		return "add"
	case OpSub:
		return "sub"
	case OpMul:
		return "mul"
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	case OpXor:
		return "xor"
	case OpShl:
		return "shl"
	case OpShr:
		return "shr"
	case OpNot:
		return "not"
	case OpNeg:
		return "neg"
	case OpEq:
		return "eq"
	case OpNe:
		return "ne"
	case OpUlt:
		return "ult"
	case OpUle:
		return "ule"
	case OpSlt:
		return "slt"
	case OpSle:
		return "sle"
	case OpIte:
		return "ite"
	default:
		return "op?"
	}
}

// Expr is an immutable expression node.
type Expr struct {
	Op   Op
	V    uint64 // OpConst value
	Name string // OpSym name
	A    *Expr  // first operand (or condition for Ite)
	B    *Expr  // second operand (or then-branch)
	C    *Expr  // else-branch for Ite
}

// Const builds a constant.
func Const(v uint64) *Expr { return &Expr{Op: OpConst, V: v} }

// Sym builds a symbolic variable.
func Sym(name string) *Expr { return &Expr{Op: OpSym, Name: name} }

// Bin builds a binary expression, constant-folding and applying identities.
func Bin(op Op, a, b *Expr) *Expr {
	if a.Op == OpConst && b.Op == OpConst {
		return Const(evalBin(op, a.V, b.V))
	}
	// Identity simplifications with a constant operand.
	if b.Op == OpConst {
		switch {
		case op == OpAdd && b.V == 0,
			op == OpSub && b.V == 0,
			op == OpOr && b.V == 0,
			op == OpXor && b.V == 0,
			op == OpShl && b.V == 0,
			op == OpShr && b.V == 0:
			return a
		case op == OpAnd && b.V == 0:
			return Const(0)
		case op == OpAnd && b.V == ^uint64(0):
			return a
		case op == OpMul && b.V == 1:
			return a
		case op == OpMul && b.V == 0:
			return Const(0)
		}
	}
	if a.Op == OpConst {
		switch {
		case op == OpAdd && a.V == 0, op == OpOr && a.V == 0, op == OpXor && a.V == 0:
			return b
		case op == OpAnd && a.V == 0, op == OpMul && a.V == 0:
			return Const(0)
		case op == OpMul && a.V == 1:
			return b
		}
	}
	// x op x simplifications.
	if sameExpr(a, b) {
		switch op {
		case OpSub, OpXor:
			return Const(0)
		case OpAnd, OpOr:
			return a
		case OpEq, OpUle, OpSle:
			return Const(1)
		case OpNe, OpUlt, OpSlt:
			return Const(0)
		}
	}
	return &Expr{Op: op, A: a, B: b}
}

// Un builds a unary expression with constant folding.
func Un(op Op, a *Expr) *Expr {
	if a.Op == OpConst {
		switch op {
		case OpNot:
			return Const(^a.V)
		case OpNeg:
			return Const(-a.V)
		}
	}
	return &Expr{Op: op, A: a}
}

// IsConst reports whether e is a constant, returning its value.
func (e *Expr) IsConst() (uint64, bool) {
	if e.Op == OpConst {
		return e.V, true
	}
	return 0, false
}

// Eval computes the expression under a symbol assignment. Unassigned
// symbols evaluate to 0.
func (e *Expr) Eval(model map[string]uint64) uint64 {
	switch e.Op {
	case OpConst:
		return e.V
	case OpSym:
		return model[e.Name]
	case OpNot:
		return ^e.A.Eval(model)
	case OpNeg:
		return -e.A.Eval(model)
	case OpIte:
		if e.A.Eval(model) != 0 {
			return e.B.Eval(model)
		}
		return e.C.Eval(model)
	default:
		return evalBin(e.Op, e.A.Eval(model), e.B.Eval(model))
	}
}

// Symbols returns the sorted set of symbol names in the expression.
func (e *Expr) Symbols() []string {
	set := make(map[string]bool)
	e.collectSymbols(set)
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func (e *Expr) collectSymbols(set map[string]bool) {
	switch e.Op {
	case OpConst:
	case OpSym:
		set[e.Name] = true
	case OpNot, OpNeg:
		e.A.collectSymbols(set)
	case OpIte:
		e.A.collectSymbols(set)
		e.B.collectSymbols(set)
		e.C.collectSymbols(set)
	default:
		e.A.collectSymbols(set)
		e.B.collectSymbols(set)
	}
}

// String renders the expression in prefix form.
func (e *Expr) String() string {
	switch e.Op {
	case OpConst:
		return fmt.Sprintf("%#x", e.V)
	case OpSym:
		return e.Name
	case OpNot, OpNeg:
		return fmt.Sprintf("(%s %s)", e.Op, e.A)
	case OpIte:
		return fmt.Sprintf("(ite %s %s %s)", e.A, e.B, e.C)
	default:
		return fmt.Sprintf("(%s %s %s)", e.Op, e.A, e.B)
	}
}

func evalBin(op Op, a, b uint64) uint64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return a << (b & 63)
	case OpShr:
		return a >> (b & 63)
	case OpEq:
		return b2u(a == b)
	case OpNe:
		return b2u(a != b)
	case OpUlt:
		return b2u(a < b)
	case OpUle:
		return b2u(a <= b)
	case OpSlt:
		return b2u(int64(a) < int64(b))
	case OpSle:
		return b2u(int64(a) <= int64(b))
	default:
		return 0
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func sameExpr(a, b *Expr) bool {
	if a == b {
		return true
	}
	if a.Op != b.Op {
		return false
	}
	switch a.Op {
	case OpConst:
		return a.V == b.V
	case OpSym:
		return a.Name == b.Name
	default:
		return false
	}
}

// Result reports the outcome of a satisfiability query.
type Result uint8

// Query outcomes. Unknown is returned when the enumeration bound was hit
// without finding a model; for the filter constraint family this does not
// happen (see package comment), but the tri-state keeps callers honest.
const (
	Sat Result = iota + 1
	Unsat
	Unknown
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	case Unknown:
		return "unknown"
	default:
		return "result?"
	}
}

// solve limits.
const (
	maxEnumSymbols  = 4
	maxCandidates   = 768
	maxEnumerations = 2_000_000
)

// Solve decides whether all constraints (1-bit expressions) can
// simultaneously evaluate to non-zero. On Sat, the returned model is a
// witness assignment.
func Solve(constraints []*Expr) (map[string]uint64, Result) {
	// Fast path: constant constraints.
	pending := make([]*Expr, 0, len(constraints))
	for _, c := range constraints {
		if v, ok := c.IsConst(); ok {
			if v == 0 {
				return nil, Unsat
			}
			continue
		}
		pending = append(pending, c)
	}
	if len(pending) == 0 {
		return map[string]uint64{}, Sat
	}

	symSet := make(map[string]bool)
	for _, c := range pending {
		c.collectSymbols(symSet)
	}
	syms := make([]string, 0, len(symSet))
	for s := range symSet {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	if len(syms) > maxEnumSymbols {
		return nil, Unknown
	}

	candidates := candidateValues(pending)
	total := 1
	for range syms {
		total *= len(candidates)
		if total > maxEnumerations {
			return nil, Unknown
		}
	}

	model := make(map[string]uint64, len(syms))
	if enumerate(pending, syms, candidates, model, 0) {
		return model, Sat
	}
	return nil, Unsat
}

func enumerate(constraints []*Expr, syms []string, candidates []uint64, model map[string]uint64, i int) bool {
	if i == len(syms) {
		for _, c := range constraints {
			if c.Eval(model) == 0 {
				return false
			}
		}
		return true
	}
	for _, v := range candidates {
		model[syms[i]] = v
		if enumerate(constraints, syms, candidates, model, i+1) {
			return true
		}
	}
	delete(model, syms[i])
	return false
}

// maskedAtom records an (expr & m) == c test found in the constraints.
type maskedAtom struct{ m, c uint64 }

// candidateValues gathers the candidate set for enumeration. Two families:
//
//  1. Boundary values: every constant in the constraints, its ±1
//     neighbours and complement, plus distinguished values.
//  2. Mask witnesses: for each combination of masked-equality atoms
//     (x & m) == c, the values that pin the masked bits to c while taking
//     the free bits from all-zeros, all-ones, or any boundary constant k —
//     i.e. V, V|^M and (k &^ M)|V. The last form lands next to comparison
//     thresholds while respecting every mask test, which makes the
//     enumeration complete for conjunctions of masked-equality and
//     interval atoms over one variable (cross-checked by the brute-force
//     test).
func candidateValues(constraints []*Expr) []uint64 {
	set := map[uint64]bool{
		0: true, 1: true, ^uint64(0): true, 1 << 63: true, 1 << 31: true,
	}
	var atoms []maskedAtom
	var walk func(e *Expr)
	walk = func(e *Expr) {
		switch e.Op {
		case OpConst:
			set[e.V] = true
			set[e.V+1] = true
			set[e.V-1] = true
			set[^e.V] = true
		case OpSym:
		case OpNot, OpNeg:
			walk(e.A)
		case OpIte:
			walk(e.A)
			walk(e.B)
			walk(e.C)
		default:
			if e.Op == OpEq || e.Op == OpNe {
				if m, c, ok := maskedEqParts(e); ok {
					atoms = append(atoms, maskedAtom{m: m, c: c})
				}
			}
			walk(e.A)
			walk(e.B)
		}
	}
	for _, c := range constraints {
		walk(c)
	}

	base := make([]uint64, 0, len(set))
	for v := range set {
		base = append(base, v)
	}
	sort.Slice(base, func(i, j int) bool { return base[i] < base[j] })

	// Combine masked atoms: singles, pairs, and the full conjunction.
	var combos []maskedAtom
	for i, a := range atoms {
		combos = append(combos, a)
		for _, b := range atoms[i+1:] {
			combos = append(combos, maskedAtom{m: a.m | b.m, c: a.c | b.c})
		}
	}
	if len(atoms) > 2 {
		all := maskedAtom{}
		for _, a := range atoms {
			all.m |= a.m
			all.c |= a.c
		}
		combos = append(combos, all)
	}
	for _, cb := range combos {
		set[cb.c] = true
		set[cb.c|^cb.m] = true
		for _, k := range base {
			set[(k&^cb.m)|cb.c] = true
		}
	}

	out := make([]uint64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if len(out) > maxCandidates {
		out = out[:maxCandidates]
	}
	return out
}

// maskedEqParts recognizes (X & const) ==/!= const shapes (either operand
// order) and returns the mask and comparison value.
func maskedEqParts(e *Expr) (m, c uint64, ok bool) {
	l, r := e.A, e.B
	if l.Op == OpConst {
		l, r = r, l
	}
	cv, isConst := r.IsConst()
	if !isConst || l.Op != OpAnd {
		return 0, 0, false
	}
	if mv, isMask := l.B.IsConst(); isMask {
		return mv, cv & mv, true
	}
	if mv, isMask := l.A.IsConst(); isMask {
		return mv, cv & mv, true
	}
	return 0, 0, false
}
