// Package sym implements a symbolic executor for M64 exception-filter
// functions — the analysis the paper performs with Z3 to decide which SEH
// filters can accept access violations (§IV-C).
//
// A filter receives the exception code in R1 and the fault address in R2 and
// returns an SEH disposition in R0. The executor runs the filter's code with
// R1/R2 (and every other non-SP register) as symbolic variables, forking at
// data-dependent branches, reading concrete globals from the loaded module
// image, and logging stores to a path-local symbolic memory. Each terminal
// path yields (constraints, return expression); the verdict asks the solver
// whether any path can return EXECUTE_HANDLER while the code equals
// ACCESS_VIOLATION.
//
// Filters that escape the executor's fragment — calling through imports,
// blocking, exceeding the path/step budget, or computing addresses the
// executor cannot concretize — produce VerdictUnknown, the "needs manual
// verification" bucket the paper describes for the post-update Internet
// Explorer filter (§VII-A).
package sym

import (
	"fmt"

	"crashresist/internal/bin"
	"crashresist/internal/faultinject"
	"crashresist/internal/isa"
	"crashresist/internal/solver"
	"crashresist/internal/vm"
)

// Analysis budgets.
const (
	maxPaths     = 128
	maxStepsPath = 2048
	maxCallDepth = 8
)

// Distinguished symbolic names.
const (
	SymCode = "code" // exception code (filter argument R1)
	SymAddr = "addr" // fault address (filter argument R2)
)

// retMagic is the concrete return address seeded at the virtual stack top; a
// RET landing on it terminates the path.
const retMagic = 0xFFFF000000000001

// virtualStackTop is the concrete SP the executor starts with. It lies
// outside any mapped region; stack traffic goes through the symbolic store.
const virtualStackTop = 0xFFFF0000E0000000

// Verdict classifies a filter.
type Verdict uint8

// Verdicts.
const (
	// VerdictAccepts: some path returns EXECUTE_HANDLER with
	// code == ACCESS_VIOLATION.
	VerdictAccepts Verdict = iota + 1
	// VerdictRejects: no path can do so.
	VerdictRejects
	// VerdictUnknown: analysis escaped the supported fragment.
	VerdictUnknown
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictAccepts:
		return "accepts-av"
	case VerdictRejects:
		return "rejects-av"
	case VerdictUnknown:
		return "unknown"
	default:
		return "verdict?"
	}
}

// ProfileClass returns the verdict's cost-profile attribution label
// ("filter:rejects-av", ...). The discovery pipelines attribute symbolic
// execution steps by filter verdict class — the axis that actually
// dominates symex cost (reject proofs must exhaust every path, so
// rejecting filters cost an order of magnitude more than accepting ones)
// — with the module as a drill-down sub-frame. The label is stable wire
// surface: ranked reports and CI assertions key on it.
func (v Verdict) ProfileClass() string { return "filter:" + v.String() }

// verdictTokens are the stable JSON wire names.
var verdictTokens = map[Verdict]string{
	VerdictAccepts: "accepts",
	VerdictRejects: "rejects",
	VerdictUnknown: "unknown",
}

// Token returns the verdict's stable wire name (the JSON token), used for
// provenance records.
func (v Verdict) Token() string {
	if tok, ok := verdictTokens[v]; ok {
		return tok
	}
	return fmt.Sprintf("verdict_%d", uint8(v))
}

// MarshalJSON encodes the verdict as a stable string token.
func (v Verdict) MarshalJSON() ([]byte, error) {
	tok, ok := verdictTokens[v]
	if !ok {
		return nil, fmt.Errorf("marshal: invalid verdict %d", uint8(v))
	}
	return []byte(`"` + tok + `"`), nil
}

// UnmarshalJSON decodes a verdict token.
func (v *Verdict) UnmarshalJSON(b []byte) error {
	s := string(b)
	for val, tok := range verdictTokens {
		if s == `"`+tok+`"` {
			*v = val
			return nil
		}
	}
	return fmt.Errorf("unmarshal: unknown verdict %s", s)
}

// Path is one terminal execution path of a filter.
type Path struct {
	Constraints []*solver.Expr
	Ret         *solver.Expr
	// Escaped marks a path that left the supported fragment before
	// returning.
	Escaped bool
	Reason  string
}

// Report is the full analysis output for one filter.
type Report struct {
	FilterVA uint64
	Verdict  Verdict
	Paths    []Path
	// Model is a witness assignment for an accepting path (if any).
	Model map[string]uint64
	// Steps counts total symbolic instructions executed.
	Steps int
}

// Executor analyzes filters inside a loaded process image.
type Executor struct {
	proc *vm.Process

	// Cache, when non-nil, memoizes AnalyzeFilterIn results by filter
	// body. It may be shared with other executors.
	Cache *Cache

	// FaultPlan, when non-nil, injects deterministic analysis failures at
	// the sym.filter site (see TryAnalyzeFilterIn). FaultAttempt is the
	// retry attempt the owning shard is on; the pool's retry wrapper sets
	// it before each attempt so transient injections clear on retry.
	FaultPlan    *faultinject.Plan
	FaultAttempt int

	// Purity tracking for the cache: while tracking, any dependence on
	// state outside [trackLo, trackHi) clears pure (see Cache).
	tracking bool
	trackLo  uint64
	trackHi  uint64
	pure     bool
	// lastPure records whether the most recent AnalyzeFilterIn call was
	// pure — a function of the filter body bytes alone (see
	// LastAnalysisPure).
	lastPure bool
}

// NewExecutor creates an executor bound to a process (for module lookup and
// concrete global reads).
func NewExecutor(p *vm.Process) *Executor {
	return &Executor{proc: p}
}

// Proc returns the process the executor is bound to.
func (e *Executor) Proc() *vm.Process {
	return e.proc
}

type cmpState struct {
	a, b   *solver.Expr
	isTest bool
	valid  bool
}

type state struct {
	regs    [isa.NumRegisters]*solver.Expr
	pc      uint64
	cmp     cmpState
	cons    []*solver.Expr
	mem     map[uint64]*solver.Expr // symbolic store log, 8-byte granules? per-byte
	depth   int
	callTop int
}

func (s *state) clone() *state {
	ns := &state{
		regs:    s.regs,
		pc:      s.pc,
		cmp:     s.cmp,
		depth:   s.depth,
		callTop: s.callTop,
	}
	ns.cons = append([]*solver.Expr(nil), s.cons...)
	ns.mem = make(map[uint64]*solver.Expr, len(s.mem))
	for k, v := range s.mem {
		ns.mem[k] = v
	}
	return ns
}

// AnalyzeFilter symbolically executes the filter function at filterVA and
// classifies it against access violations: can it return
// EXECUTE_HANDLER (1) when the code equals ACCESS_VIOLATION?
func (e *Executor) AnalyzeFilter(filterVA uint64) Report {
	return e.analyze(filterVA, vm.DispositionExecuteHandler)
}

// AnalyzeVEH classifies a vectored exception handler: VEH resolves a fault
// by returning EXCEPTION_CONTINUE_EXECUTION (-1) rather than
// EXECUTE_HANDLER, so the accepting disposition differs from scope filters.
func (e *Executor) AnalyzeVEH(handlerVA uint64) Report {
	return e.analyze(handlerVA, vm.DispositionContinueExecution)
}

func (e *Executor) analyze(filterVA, disposition uint64) Report {
	rep := Report{FilterVA: filterVA}

	init := &state{
		pc:  filterVA,
		mem: make(map[uint64]*solver.Expr),
	}
	for r := 0; r < isa.NumRegisters; r++ {
		init.regs[r] = solver.Sym(fmt.Sprintf("init_r%d", r))
	}
	init.regs[isa.R1] = solver.Sym(SymCode)
	init.regs[isa.R2] = solver.Sym(SymAddr)
	init.regs[isa.SP] = solver.Const(virtualStackTop)
	// Seed the return address.
	e.storeN(init, virtualStackTop, 8, solver.Const(retMagic))

	work := []*state{init}
	for len(work) > 0 && len(rep.Paths) < maxPaths {
		st := work[len(work)-1]
		work = work[:len(work)-1]
		e.runPath(st, &rep, &work)
	}
	if len(work) > 0 {
		// Path budget exhausted with work remaining.
		rep.Paths = append(rep.Paths, Path{Escaped: true, Reason: "path budget exceeded"})
	}

	rep.Verdict = e.verdict(&rep, disposition)
	return rep
}

// verdict inspects the collected paths against the accepting disposition.
func (e *Executor) verdict(rep *Report, disposition uint64) Verdict {
	unknown := false
	for _, p := range rep.Paths {
		if p.Escaped {
			unknown = true
			continue
		}
		cs := make([]*solver.Expr, 0, len(p.Constraints)+2)
		cs = append(cs, p.Constraints...)
		cs = append(cs,
			solver.Bin(solver.OpEq, solver.Sym(SymCode), solver.Const(uint64(vm.ExcAccessViolation))),
			solver.Bin(solver.OpEq, p.Ret, solver.Const(disposition)),
		)
		model, res := solver.Solve(cs)
		switch res {
		case solver.Sat:
			rep.Model = model
			return VerdictAccepts
		case solver.Unknown:
			unknown = true
		}
	}
	if unknown {
		return VerdictUnknown
	}
	return VerdictRejects
}

// runPath executes one state to a terminal, possibly pushing forked states.
func (e *Executor) runPath(st *state, rep *Report, work *[]*state) {
	for steps := 0; steps < maxStepsPath; steps++ {
		rep.Steps++
		if st.pc == retMagic {
			rep.Paths = append(rep.Paths, Path{Constraints: st.cons, Ret: st.regs[isa.R0]})
			return
		}
		ins, size, err := e.fetch(st.pc)
		if err != nil {
			rep.Paths = append(rep.Paths, Path{Escaped: true, Reason: err.Error(), Constraints: st.cons})
			return
		}
		next := st.pc + uint64(size)
		done, escaped, reason := e.execSym(st, ins, next, work)
		if escaped {
			rep.Paths = append(rep.Paths, Path{Escaped: true, Reason: reason, Constraints: st.cons})
			return
		}
		if done {
			rep.Paths = append(rep.Paths, Path{Constraints: st.cons, Ret: st.regs[isa.R0]})
			return
		}
	}
	rep.Paths = append(rep.Paths, Path{Escaped: true, Reason: "step budget exceeded", Constraints: st.cons})
}

// fetch decodes the instruction at a concrete PC from process memory.
func (e *Executor) fetch(pc uint64) (isa.Instruction, int, error) {
	if e.tracking && (pc < e.trackLo || pc >= e.trackHi) {
		e.pure = false
	}
	var buf [10]byte
	code, err := e.proc.AS.FetchExec(pc, len(buf), buf[:0])
	if err != nil {
		return isa.Instruction{}, 0, fmt.Errorf("fetch %#x: %w", pc, err)
	}
	ins, size, err := isa.Decode(code)
	if err != nil {
		return isa.Instruction{}, 0, fmt.Errorf("decode %#x: %w", pc, err)
	}
	return ins, size, nil
}

// execSym executes one instruction symbolically. It returns done for path
// termination (RET to magic) and escaped for unsupported constructs.
func (e *Executor) execSym(st *state, ins isa.Instruction, next uint64, work *[]*state) (done, escaped bool, reason string) {
	switch ins.Op {
	case isa.OpNop, isa.OpYield:
		st.pc = next
	case isa.OpHalt, isa.OpSyscall, isa.OpRaise:
		return false, true, "filter executes " + ins.Op.String()
	case isa.OpCallI:
		// Code imports (cross-module calls) are ordinary code and can
		// be inlined; native platform APIs cannot be modelled and
		// escape to "unknown" — the paper's manual-vetting bucket.
		// Either way the outcome depends on the module's import table,
		// not just the filter body.
		e.pure = false
		mod, ok := e.proc.FindModule(st.pc)
		if !ok || int(ins.Disp) < 0 || int(ins.Disp) >= len(mod.ImportAddrs) {
			return false, true, "filter calls through unresolvable import slot"
		}
		target := mod.ImportAddrs[ins.Disp]
		if target&bin.NativeImportBit != 0 {
			return false, true, "filter calls a native platform API"
		}
		return e.symCall(st, target, next)
	case isa.OpCallR, isa.OpJmpR:
		target, ok := st.regs[ins.A].IsConst()
		if !ok {
			return false, true, "indirect transfer to symbolic target"
		}
		if ins.Op == isa.OpJmpR {
			st.pc = target
			return false, false, ""
		}
		return e.symCall(st, target, next)
	case isa.OpCall:
		return e.symCall(st, next+uint64(int64(ins.Disp)), next)
	case isa.OpRet:
		spv, ok := st.regs[isa.SP].IsConst()
		if !ok {
			return false, true, "ret with symbolic SP"
		}
		retExpr, ok := e.loadN(st, spv, 8)
		if !ok {
			return false, true, "ret reads unresolvable stack slot"
		}
		ret, ok := retExpr.IsConst()
		if !ok {
			return false, true, "ret to symbolic address"
		}
		st.regs[isa.SP] = solver.Const(spv + 8)
		if ret == retMagic {
			return true, false, ""
		}
		st.callTop--
		st.pc = ret

	case isa.OpPush:
		spv, ok := st.regs[isa.SP].IsConst()
		if !ok {
			return false, true, "push with symbolic SP"
		}
		e.storeN(st, spv-8, 8, st.regs[ins.A])
		st.regs[isa.SP] = solver.Const(spv - 8)
		st.pc = next
	case isa.OpPop:
		spv, ok := st.regs[isa.SP].IsConst()
		if !ok {
			return false, true, "pop with symbolic SP"
		}
		v, ok := e.loadN(st, spv, 8)
		if !ok {
			return false, true, "pop reads unresolvable stack slot"
		}
		st.regs[ins.A] = v
		st.regs[isa.SP] = solver.Const(spv + 8)
		st.pc = next

	case isa.OpMovRR:
		st.regs[ins.A] = st.regs[ins.B]
		st.pc = next
	case isa.OpMovRI:
		st.regs[ins.A] = solver.Const(ins.Imm)
		st.pc = next
	case isa.OpLea:
		// Materializes an absolute VA, which shifts with the module base.
		e.pure = false
		st.regs[ins.A] = solver.Const(next + uint64(int64(ins.Disp)))
		st.pc = next
	case isa.OpNot:
		st.regs[ins.A] = solver.Un(solver.OpNot, st.regs[ins.A])
		st.pc = next
	case isa.OpNeg:
		st.regs[ins.A] = solver.Un(solver.OpNeg, st.regs[ins.A])
		st.pc = next

	case isa.OpAddRR, isa.OpSubRR, isa.OpAndRR, isa.OpOrRR, isa.OpXorRR,
		isa.OpShlRR, isa.OpShrRR, isa.OpMulRR:
		st.regs[ins.A] = solver.Bin(aluToSolver(ins.Op), st.regs[ins.A], st.regs[ins.B])
		st.pc = next
	case isa.OpDivRR:
		return false, true, "filter divides (unsupported symbolically)"
	case isa.OpAddRI, isa.OpSubRI, isa.OpAndRI, isa.OpOrRI, isa.OpXorRI,
		isa.OpShlRI, isa.OpShrRI, isa.OpMulRI:
		imm := solver.Const(uint64(int64(ins.Disp)))
		st.regs[ins.A] = solver.Bin(aluToSolver(ins.Op), st.regs[ins.A], imm)
		st.pc = next

	case isa.OpCmpRR:
		st.cmp = cmpState{a: st.regs[ins.A], b: st.regs[ins.B], valid: true}
		st.pc = next
	case isa.OpCmpRI:
		st.cmp = cmpState{a: st.regs[ins.A], b: solver.Const(uint64(int64(ins.Disp))), valid: true}
		st.pc = next
	case isa.OpTestRR:
		st.cmp = cmpState{a: st.regs[ins.A], b: st.regs[ins.B], isTest: true, valid: true}
		st.pc = next
	case isa.OpTestRI:
		st.cmp = cmpState{a: st.regs[ins.A], b: solver.Const(uint64(int64(ins.Disp))), isTest: true, valid: true}
		st.pc = next

	case isa.OpLoad1, isa.OpLoad2, isa.OpLoad4, isa.OpLoad8:
		addrExpr := solver.Bin(solver.OpAdd, st.regs[ins.B], solver.Const(uint64(int64(ins.Disp))))
		addr, ok := addrExpr.IsConst()
		if !ok {
			return false, true, "load from symbolic address"
		}
		v, ok := e.loadN(st, addr, ins.LoadSize())
		if !ok {
			return false, true, fmt.Sprintf("load from unreadable %#x", addr)
		}
		st.regs[ins.A] = v
		st.pc = next
	case isa.OpStore1, isa.OpStore2, isa.OpStore4, isa.OpStore8:
		addrExpr := solver.Bin(solver.OpAdd, st.regs[ins.A], solver.Const(uint64(int64(ins.Disp))))
		addr, ok := addrExpr.IsConst()
		if !ok {
			return false, true, "store to symbolic address"
		}
		e.storeN(st, addr, ins.StoreSize(), st.regs[ins.B])
		st.pc = next

	case isa.OpJmp:
		st.pc = next + uint64(int64(ins.Disp))
	case isa.OpJz, isa.OpJnz, isa.OpJl, isa.OpJge, isa.OpJle, isa.OpJg, isa.OpJb, isa.OpJae:
		if !st.cmp.valid {
			return false, true, "conditional jump without preceding compare"
		}
		cond := condExpr(ins.Op, st.cmp)
		target := next + uint64(int64(ins.Disp))
		if v, ok := cond.IsConst(); ok {
			if v != 0 {
				st.pc = target
			} else {
				st.pc = next
			}
			return false, false, ""
		}
		// Fork: taken branch goes to the worklist, fall-through
		// continues here.
		taken := st.clone()
		taken.cons = append(taken.cons, solver.Bin(solver.OpNe, cond, solver.Const(0)))
		taken.pc = target
		*work = append(*work, taken)
		st.cons = append(st.cons, solver.Bin(solver.OpEq, cond, solver.Const(0)))
		st.pc = next

	default:
		return false, true, "unsupported opcode " + ins.Op.String()
	}
	return false, false, ""
}

func (e *Executor) symCall(st *state, target, retPC uint64) (done, escaped bool, reason string) {
	if st.callTop+1 > maxCallDepth {
		return false, true, "call depth exceeded"
	}
	spv, ok := st.regs[isa.SP].IsConst()
	if !ok {
		return false, true, "call with symbolic SP"
	}
	e.storeN(st, spv-8, 8, solver.Const(retPC))
	st.regs[isa.SP] = solver.Const(spv - 8)
	st.callTop++
	st.pc = target
	return false, false, ""
}

// loadN reads size bytes at a concrete address: first from the path-local
// store log, then from concrete process memory; virtual-stack bytes that
// were never written become fresh symbols.
func (e *Executor) loadN(st *state, addr uint64, size int) (*solver.Expr, bool) {
	var out *solver.Expr = solver.Const(0)
	for i := size - 1; i >= 0; i-- {
		b, ok := e.loadByte(st, addr+uint64(i))
		if !ok {
			return nil, false
		}
		out = solver.Bin(solver.OpOr, solver.Bin(solver.OpShl, out, solver.Const(8)), b)
	}
	return out, true
}

func (e *Executor) loadByte(st *state, addr uint64) (*solver.Expr, bool) {
	if v, ok := st.mem[addr]; ok {
		return v, true
	}
	// Concrete memory.
	if b, err := e.proc.AS.ReadUint(addr, 1); err == nil {
		if e.tracking && (addr < e.trackLo || addr >= e.trackHi) {
			e.pure = false
		}
		return solver.Const(b), true
	}
	// Virtual stack: untouched slots are unconstrained.
	if addr >= virtualStackTop-1<<20 && addr < virtualStackTop+4096 {
		s := solver.Sym(fmt.Sprintf("stack_%x", addr))
		st.mem[addr] = s
		return s, true
	}
	return nil, false
}

// storeN writes a value's bytes into the path-local store log.
func (e *Executor) storeN(st *state, addr uint64, size int, v *solver.Expr) {
	for i := 0; i < size; i++ {
		st.mem[addr+uint64(i)] = solver.Bin(solver.OpAnd,
			solver.Bin(solver.OpShr, v, solver.Const(uint64(8*i))),
			solver.Const(0xFF))
	}
}

func aluToSolver(op isa.Op) solver.Op {
	switch op {
	case isa.OpAddRR, isa.OpAddRI:
		return solver.OpAdd
	case isa.OpSubRR, isa.OpSubRI:
		return solver.OpSub
	case isa.OpAndRR, isa.OpAndRI:
		return solver.OpAnd
	case isa.OpOrRR, isa.OpOrRI:
		return solver.OpOr
	case isa.OpXorRR, isa.OpXorRI:
		return solver.OpXor
	case isa.OpShlRR, isa.OpShlRI:
		return solver.OpShl
	case isa.OpShrRR, isa.OpShrRI:
		return solver.OpShr
	case isa.OpMulRR, isa.OpMulRI:
		return solver.OpMul
	default:
		return solver.OpAdd
	}
}

func condExpr(op isa.Op, c cmpState) *solver.Expr {
	if c.isTest {
		// TEST: Z = (a & b) == 0; only JZ/JNZ are meaningful.
		z := solver.Bin(solver.OpEq, solver.Bin(solver.OpAnd, c.a, c.b), solver.Const(0))
		switch op {
		case isa.OpJz:
			return z
		case isa.OpJnz:
			return solver.Bin(solver.OpEq, z, solver.Const(0))
		default:
			// L/B flags are cleared by TEST; jl/jb never taken,
			// jge/jae always taken.
			switch op {
			case isa.OpJl, isa.OpJb:
				return solver.Const(0)
			case isa.OpJge, isa.OpJae:
				return solver.Const(1)
			case isa.OpJle:
				return z
			case isa.OpJg:
				return solver.Bin(solver.OpEq, z, solver.Const(0))
			}
			return solver.Const(0)
		}
	}
	switch op {
	case isa.OpJz:
		return solver.Bin(solver.OpEq, c.a, c.b)
	case isa.OpJnz:
		return solver.Bin(solver.OpNe, c.a, c.b)
	case isa.OpJl:
		return solver.Bin(solver.OpSlt, c.a, c.b)
	case isa.OpJge:
		return solver.Bin(solver.OpSle, c.b, c.a)
	case isa.OpJle:
		return solver.Bin(solver.OpSle, c.a, c.b)
	case isa.OpJg:
		return solver.Bin(solver.OpSlt, c.b, c.a)
	case isa.OpJb:
		return solver.Bin(solver.OpUlt, c.a, c.b)
	case isa.OpJae:
		return solver.Bin(solver.OpUle, c.b, c.a)
	default:
		return solver.Const(0)
	}
}
