package solver

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstFolding(t *testing.T) {
	tests := []struct {
		name string
		give *Expr
		want uint64
	}{
		{"add", Bin(OpAdd, Const(2), Const(3)), 5},
		{"sub wrap", Bin(OpSub, Const(0), Const(1)), ^uint64(0)},
		{"mul", Bin(OpMul, Const(6), Const(7)), 42},
		{"and", Bin(OpAnd, Const(0xFF), Const(0x0F)), 0x0F},
		{"or", Bin(OpOr, Const(0xF0), Const(0x0F)), 0xFF},
		{"xor", Bin(OpXor, Const(0xFF), Const(0x0F)), 0xF0},
		{"shl", Bin(OpShl, Const(1), Const(8)), 256},
		{"shr", Bin(OpShr, Const(256), Const(4)), 16},
		{"shl mod 64", Bin(OpShl, Const(1), Const(64)), 1},
		{"eq true", Bin(OpEq, Const(5), Const(5)), 1},
		{"eq false", Bin(OpEq, Const(5), Const(6)), 0},
		{"ult", Bin(OpUlt, Const(1), Const(2)), 1},
		{"slt negative", Bin(OpSlt, Const(^uint64(0)), Const(0)), 1},
		{"sle", Bin(OpSle, Const(3), Const(3)), 1},
		{"ule", Bin(OpUle, Const(4), Const(3)), 0},
		{"ne", Bin(OpNe, Const(1), Const(2)), 1},
		{"not", Un(OpNot, Const(0)), ^uint64(0)},
		{"neg", Un(OpNeg, Const(1)), ^uint64(0)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v, ok := tt.give.IsConst()
			if !ok {
				t.Fatalf("not folded: %v", tt.give)
			}
			if v != tt.want {
				t.Errorf("got %#x, want %#x", v, tt.want)
			}
		})
	}
}

func TestIdentitySimplifications(t *testing.T) {
	x := Sym("x")
	tests := []struct {
		name string
		give *Expr
		want *Expr
	}{
		{"x+0", Bin(OpAdd, x, Const(0)), x},
		{"0+x", Bin(OpAdd, Const(0), x), x},
		{"x&0", Bin(OpAnd, x, Const(0)), Const(0)},
		{"x&~0", Bin(OpAnd, x, Const(^uint64(0))), x},
		{"x|0", Bin(OpOr, x, Const(0)), x},
		{"x*1", Bin(OpMul, x, Const(1)), x},
		{"x*0", Bin(OpMul, x, Const(0)), Const(0)},
		{"x-x", Bin(OpSub, x, x), Const(0)},
		{"x^x", Bin(OpXor, x, x), Const(0)},
		{"x==x", Bin(OpEq, x, x), Const(1)},
		{"x<x", Bin(OpUlt, x, x), Const(0)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.give.String() != tt.want.String() {
				t.Errorf("got %v, want %v", tt.give, tt.want)
			}
		})
	}
}

func TestIteFolding(t *testing.T) {
	if got := Ite(Const(1), Const(10), Const(20)); got.V != 10 {
		t.Errorf("ite true = %v", got)
	}
	if got := Ite(Const(0), Const(10), Const(20)); got.V != 20 {
		t.Errorf("ite false = %v", got)
	}
	e := Ite(Sym("c"), Const(10), Const(20))
	if _, ok := e.IsConst(); ok {
		t.Error("symbolic ite folded")
	}
	if got := e.Eval(map[string]uint64{"c": 1}); got != 10 {
		t.Errorf("eval ite = %d", got)
	}
}

func TestEvalWithModel(t *testing.T) {
	// (x + 3) == 10
	e := Bin(OpEq, Bin(OpAdd, Sym("x"), Const(3)), Const(10))
	if e.Eval(map[string]uint64{"x": 7}) != 1 {
		t.Error("should hold for x=7")
	}
	if e.Eval(map[string]uint64{"x": 8}) != 0 {
		t.Error("should not hold for x=8")
	}
	if e.Eval(nil) != 0 {
		t.Error("unassigned symbol should default to 0")
	}
}

func TestSymbols(t *testing.T) {
	e := Bin(OpAdd, Sym("b"), Bin(OpXor, Sym("a"), Ite(Sym("c"), Const(1), Sym("a"))))
	syms := e.Symbols()
	want := []string{"a", "b", "c"}
	if len(syms) != len(want) {
		t.Fatalf("symbols = %v", syms)
	}
	for i := range want {
		if syms[i] != want[i] {
			t.Errorf("symbols = %v, want %v", syms, want)
		}
	}
}

func TestSolveSimpleEquality(t *testing.T) {
	// code == 0xC0000005
	c := Bin(OpEq, Sym("code"), Const(0xC0000005))
	model, res := Solve([]*Expr{c})
	if res != Sat {
		t.Fatalf("res = %v", res)
	}
	if model["code"] != 0xC0000005 {
		t.Errorf("model = %v", model)
	}
}

func TestSolveContradiction(t *testing.T) {
	x := Sym("x")
	cs := []*Expr{
		Bin(OpEq, x, Const(5)),
		Bin(OpEq, x, Const(6)),
	}
	if _, res := Solve(cs); res != Unsat {
		t.Errorf("res = %v, want unsat", res)
	}
}

func TestSolveConjunctionOfRanges(t *testing.T) {
	// 10 <= x && x < 20 && x != 15
	x := Sym("x")
	cs := []*Expr{
		Bin(OpUle, Const(10), x),
		Bin(OpUlt, x, Const(20)),
		Bin(OpNe, x, Const(15)),
	}
	model, res := Solve(cs)
	if res != Sat {
		t.Fatalf("res = %v", res)
	}
	v := model["x"]
	if v < 10 || v >= 20 || v == 15 {
		t.Errorf("model x = %d violates constraints", v)
	}
}

func TestSolveMaskTest(t *testing.T) {
	// (code & 0xF0000000) == 0xC0000000 — severity-error class check.
	code := Sym("code")
	c := Bin(OpEq, Bin(OpAnd, code, Const(0xF0000000)), Const(0xC0000000))
	model, res := Solve([]*Expr{c})
	if res != Sat {
		t.Fatalf("res = %v", res)
	}
	if model["code"]&0xF0000000 != 0xC0000000 {
		t.Errorf("model = %v", model)
	}
}

func TestSolveMultiSymbol(t *testing.T) {
	// a + b == 2 with a == 1.
	a, b := Sym("a"), Sym("b")
	cs := []*Expr{
		Bin(OpEq, Bin(OpAdd, a, b), Const(2)),
		Bin(OpEq, a, Const(1)),
	}
	model, res := Solve(cs)
	if res != Sat {
		t.Fatalf("res = %v", res)
	}
	if model["a"]+model["b"] != 2 {
		t.Errorf("model = %v", model)
	}
}

func TestSolveConstantConstraints(t *testing.T) {
	if _, res := Solve([]*Expr{Const(1), Const(5)}); res != Sat {
		t.Error("non-zero constants are sat")
	}
	if _, res := Solve([]*Expr{Const(1), Const(0)}); res != Unsat {
		t.Error("zero constant is unsat")
	}
	if _, res := Solve(nil); res != Sat {
		t.Error("empty constraints are sat")
	}
}

func TestSolveTooManySymbolsUnknown(t *testing.T) {
	cs := make([]*Expr, 0, 6)
	var sum *Expr = Const(0)
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		sum = Bin(OpAdd, sum, Sym(n))
	}
	cs = append(cs, Bin(OpEq, sum, Const(12345)))
	if _, res := Solve(cs); res != Unknown {
		t.Errorf("res = %v, want unknown beyond symbol budget", res)
	}
}

func TestSatisfiableWith(t *testing.T) {
	// Filter-accepts-AV query shape: path constraint (code & mask)==class,
	// fixed code = access violation.
	code := Sym("code")
	accept := Bin(OpEq, Bin(OpAnd, code, Const(0xFFFFFFFF)), Const(0xC0000005))
	fixed := func(v uint64) Result {
		_, res := Solve([]*Expr{accept, Bin(OpEq, code, Const(v))})
		return res
	}
	if res := fixed(0xC0000005); res != Sat {
		t.Errorf("res = %v", res)
	}
	if res := fixed(0xC0000094); res != Unsat {
		t.Errorf("res = %v", res)
	}
}

// TestSolveMatchesBruteForce cross-validates the bounded solver against
// exhaustive enumeration for random filter-style constraint systems over a
// single 8-bit symbol.
func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mkAtom := func() *Expr {
		x := Bin(OpAnd, Sym("x"), Const(0xFF)) // treat x as 8-bit
		c := Const(uint64(rng.Intn(256)))
		switch rng.Intn(5) {
		case 0:
			return Bin(OpEq, x, c)
		case 1:
			return Bin(OpNe, x, c)
		case 2:
			return Bin(OpUlt, x, c)
		case 3:
			return Bin(OpUle, c, x)
		default:
			mask := Const(uint64(rng.Intn(256)))
			return Bin(OpEq, Bin(OpAnd, x, mask), Bin(OpAnd, c, mask))
		}
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(3)
		cs := make([]*Expr, n)
		for i := range cs {
			cs[i] = mkAtom()
		}
		_, got := Solve(cs)

		// Brute force over 0..255 (x only matters mod 256 given the
		// masking in every atom).
		bruteSat := false
		for v := 0; v < 256; v++ {
			ok := true
			m := map[string]uint64{"x": uint64(v)}
			for _, c := range cs {
				if c.Eval(m) == 0 {
					ok = false
					break
				}
			}
			if ok {
				bruteSat = true
				break
			}
		}
		want := Unsat
		if bruteSat {
			want = Sat
		}
		if got != want {
			t.Fatalf("trial %d: solver=%v brute=%v constraints=%v", trial, got, want, cs)
		}
	}
}

// TestQuickEvalDeterministic property-tests that evaluation is a pure
// function of the model.
func TestQuickEvalDeterministic(t *testing.T) {
	f := func(a, b uint64) bool {
		e := Bin(OpXor, Bin(OpAdd, Sym("a"), Sym("b")), Bin(OpMul, Sym("a"), Const(3)))
		m := map[string]uint64{"a": a, "b": b}
		return e.Eval(m) == e.Eval(m) && e.Eval(m) == (a+b)^(a*3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpAndResultStrings(t *testing.T) {
	for op := OpConst; op <= OpIte; op++ {
		if op.String() == "op?" {
			t.Errorf("op %d has no name", op)
		}
	}
	if Sat.String() != "sat" || Unsat.String() != "unsat" || Unknown.String() != "unknown" {
		t.Error("result strings wrong")
	}
}

func TestExprString(t *testing.T) {
	e := Bin(OpEq, Bin(OpAnd, Sym("code"), Const(0xFF)), Const(5))
	if got := e.String(); got != "(eq (and code 0xff) 0x5)" {
		t.Errorf("String = %q", got)
	}
}
