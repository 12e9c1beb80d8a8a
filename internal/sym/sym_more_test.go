package sym

import (
	"testing"

	"crashresist/internal/asm"
	"crashresist/internal/isa"
	"crashresist/internal/vm"
)

// TestFilterAllALUOps exercises every ALU opcode through the symbolic
// lifter: each transformation must preserve the deciding comparison.
func TestFilterAllALUOps(t *testing.T) {
	// ((code + 1 - 1) | 0) ^ 0 stays code; (code * 1) stays code;
	// (code << 4) >> 4 stays code for 32-bit inputs; & 0xFFFFFFFF keeps it.
	p, va := loadFilters(t, func(b *asm.Builder) {
		b.Func("f").
			MovRR(isa.R3, isa.R1).
			AddRI(isa.R3, 1).
			SubRI(isa.R3, 1).
			OrRI(isa.R3, 0).
			XorRI(isa.R3, 0).
			MulRI(isa.R3, 1).
			ShlRI(isa.R3, 4).
			ShrRI(isa.R3, 4).
			MovRI(isa.R4, 0xFFFFFFFF).
			AndRR(isa.R3, isa.R4).
			MovRI(isa.R5, uint64(vm.ExcAccessViolation)).
			CmpRR(isa.R3, isa.R5).
			Jz("y").
			MovRI(isa.R0, 0).
			Ret().
			Label("y").
			MovRI(isa.R0, 1).
			Ret().
			EndFunc()
		b.Export("f", "f")
	})
	rep := NewExecutor(p).AnalyzeFilter(va("f"))
	if rep.Verdict != VerdictAccepts {
		t.Errorf("verdict = %v, want accepts", rep.Verdict)
	}
}

// TestFilterRegisterPairOps exercises register-register ALU, NOT/NEG and
// the signed/unsigned conditional family.
func TestFilterRegisterPairOps(t *testing.T) {
	p, va := loadFilters(t, func(b *asm.Builder) {
		// Accept when code-5 signed-less-than AV-4 and code signed-
		// greater than 0x1000 — i.e. 0x1000 < code < AV+1: AV qualifies.
		b.Func("f").
			MovRR(isa.R3, isa.R1).
			MovRI(isa.R4, 5).
			SubRR(isa.R3, isa.R4).
			MovRI(isa.R5, uint64(vm.ExcAccessViolation)-4).
			CmpRR(isa.R3, isa.R5).
			Jge("no").
			CmpRI(isa.R1, 0x1000).
			Jle("no").
			MovRI(isa.R0, 1).
			Ret().
			Label("no").
			MovRI(isa.R0, 0).
			Ret().
			EndFunc()
		b.Export("f", "f")
	})
	rep := NewExecutor(p).AnalyzeFilter(va("f"))
	// Signed compare: AV (0xC0000005) is NEGATIVE as int32 but positive
	// as int64; R1 is 64-bit so 0x1000 < 0xC0000005 signed holds.
	if rep.Verdict != VerdictAccepts {
		t.Errorf("verdict = %v, want accepts (paths: %d)", rep.Verdict, len(rep.Paths))
	}
}

// TestFilterNotNeg covers the unary ops.
func TestFilterNotNeg(t *testing.T) {
	p, va := loadFilters(t, func(b *asm.Builder) {
		// ~(-code) == code - 1; accept when that equals AV-1.
		b.Func("f").
			MovRR(isa.R3, isa.R1).
			Neg(isa.R3).
			Not(isa.R3).
			MovRI(isa.R4, uint64(vm.ExcAccessViolation)-1).
			CmpRR(isa.R3, isa.R4).
			Jz("y").
			MovRI(isa.R0, 0).
			Ret().
			Label("y").
			MovRI(isa.R0, 1).
			Ret().
			EndFunc()
		b.Export("f", "f")
	})
	rep := NewExecutor(p).AnalyzeFilter(va("f"))
	if rep.Verdict != VerdictAccepts {
		t.Errorf("verdict = %v, want accepts", rep.Verdict)
	}
}

// TestFilterIndirectJumpConstantTarget covers jmpr with a concrete target.
func TestFilterIndirectJumpConstantTarget(t *testing.T) {
	p, va := loadFilters(t, func(b *asm.Builder) {
		b.Func("f").
			LeaCode(isa.R5, "tail").
			JmpR(isa.R5).
			MovRI(isa.R0, 0). // skipped
			Ret().
			Label("tail").
			MovRI(isa.R0, 1).
			Ret().
			EndFunc()
		b.Export("f", "f")
	})
	rep := NewExecutor(p).AnalyzeFilter(va("f"))
	if rep.Verdict != VerdictAccepts {
		t.Errorf("verdict = %v, want accepts", rep.Verdict)
	}
}

// TestFilterIndirectCallSymbolicTargetEscapes covers callr on a symbolic
// register.
func TestFilterIndirectCallSymbolicTargetEscapes(t *testing.T) {
	p, va := loadFilters(t, func(b *asm.Builder) {
		b.Func("f").
			CallR(isa.R9). // R9 is unconstrained
			Ret().
			EndFunc()
		b.Export("f", "f")
	})
	rep := NewExecutor(p).AnalyzeFilter(va("f"))
	if rep.Verdict != VerdictUnknown {
		t.Errorf("verdict = %v, want unknown", rep.Verdict)
	}
}

// TestFilterSyscallEscapes covers the syscall escape.
func TestFilterSyscallEscapes(t *testing.T) {
	p, va := loadFilters(t, func(b *asm.Builder) {
		b.Func("f").
			Syscall().
			MovRI(isa.R0, 1).
			Ret().
			EndFunc()
		b.Export("f", "f")
	})
	if rep := NewExecutor(p).AnalyzeFilter(va("f")); rep.Verdict != VerdictUnknown {
		t.Errorf("verdict = %v, want unknown", rep.Verdict)
	}
}

// TestFilterDivEscapes covers the division escape.
func TestFilterDivEscapes(t *testing.T) {
	p, va := loadFilters(t, func(b *asm.Builder) {
		b.Func("f").
			MovRI(isa.R3, 2).
			DivRR(isa.R1, isa.R3).
			MovRI(isa.R0, 1).
			Ret().
			EndFunc()
		b.Export("f", "f")
	})
	if rep := NewExecutor(p).AnalyzeFilter(va("f")); rep.Verdict != VerdictUnknown {
		t.Errorf("verdict = %v, want unknown", rep.Verdict)
	}
}

// TestFilterLoadFromSymbolicAddressEscapes: dereferencing the fault address
// is outside the executor's fragment.
func TestFilterLoadFromSymbolicAddressEscapes(t *testing.T) {
	p, va := loadFilters(t, func(b *asm.Builder) {
		b.Func("f").
			Load(8, isa.R0, isa.R2, 0). // [fault address]
			Ret().
			EndFunc()
		b.Export("f", "f")
	})
	if rep := NewExecutor(p).AnalyzeFilter(va("f")); rep.Verdict != VerdictUnknown {
		t.Errorf("verdict = %v, want unknown", rep.Verdict)
	}
}

// TestFilterStoreToGlobalThenReload covers the store log round trip through
// all access widths.
func TestFilterStoreToGlobalThenReload(t *testing.T) {
	p, va := loadFilters(t, func(b *asm.Builder) {
		b.Func("f").
			LeaData(isa.R4, "cell").
			Store(4, isa.R4, 0, isa.R1). // spill low 32 bits of code
			Load(4, isa.R5, isa.R4, 0).
			MovRI(isa.R3, uint64(vm.ExcAccessViolation)).
			CmpRR(isa.R5, isa.R3).
			Jz("y").
			MovRI(isa.R0, 0).
			Ret().
			Label("y").
			MovRI(isa.R0, 1).
			Ret().
			EndFunc()
		b.BSS("cell", 8)
		b.Export("f", "f")
	})
	rep := NewExecutor(p).AnalyzeFilter(va("f"))
	if rep.Verdict != VerdictAccepts {
		t.Errorf("verdict = %v, want accepts (paths %+v)", rep.Verdict, len(rep.Paths))
	}
}

// TestFilterTestInstructionConditionals covers the TEST-flag conditional
// family in the lifter.
func TestFilterTestInstructionConditionals(t *testing.T) {
	p, va := loadFilters(t, func(b *asm.Builder) {
		// test code, 0x4: AV (0xC0000005) has bit 2 set → jnz taken.
		b.Func("f").
			TestRI(isa.R1, 0x4).
			Jnz("y").
			MovRI(isa.R0, 0).
			Ret().
			Label("y").
			MovRI(isa.R0, 1).
			Ret().
			EndFunc()
		b.Export("f", "f")
	})
	rep := NewExecutor(p).AnalyzeFilter(va("f"))
	if rep.Verdict != VerdictAccepts {
		t.Errorf("verdict = %v, want accepts", rep.Verdict)
	}

	// jl after test is never taken (L cleared); jge always taken.
	p2, va2 := loadFilters(t, func(b *asm.Builder) {
		b.Func("f").
			TestRR(isa.R1, isa.R1).
			Jl("y"). // never
			MovRI(isa.R0, 0).
			Ret().
			Label("y").
			MovRI(isa.R0, 1).
			Ret().
			EndFunc()
		b.Export("f", "f")
	})
	if rep := NewExecutor(p2).AnalyzeFilter(va2("f")); rep.Verdict != VerdictRejects {
		t.Errorf("jl-after-test verdict = %v, want rejects", rep.Verdict)
	}
}

// TestFilterPushPopRoundTrip covers stack opcode lifting.
func TestFilterPushPopRoundTrip(t *testing.T) {
	p, va := loadFilters(t, func(b *asm.Builder) {
		b.Func("f").
			Push(isa.R1).
			MovRI(isa.R1, 0). // clobber
			Pop(isa.R1).      // restore
			MovRI(isa.R3, uint64(vm.ExcAccessViolation)).
			CmpRR(isa.R1, isa.R3).
			Jz("y").
			MovRI(isa.R0, 0).
			Ret().
			Label("y").
			MovRI(isa.R0, 1).
			Ret().
			EndFunc()
		b.Export("f", "f")
	})
	rep := NewExecutor(p).AnalyzeFilter(va("f"))
	if rep.Verdict != VerdictAccepts {
		t.Errorf("verdict = %v, want accepts", rep.Verdict)
	}
}

// TestAnalyzeScopeWithFilter analyzes a guarded scope through the filter
// its scope-table entry names.
func TestAnalyzeScopeWithFilter(t *testing.T) {
	p, _ := loadFilters(t, func(b *asm.Builder) {
		b.Func("g").Label("g0").Nop().Label("g1").Ret().EndFunc()
		b.Func("flt").MovRI(isa.R0, 1).Ret().EndFunc()
		b.Guard("g", "g0", "g1", "flt", "g1")
	})
	mod := p.Modules()[0]
	rep := NewExecutor(p).AnalyzeFilter(mod.VA(mod.Image.Scopes[0].Filter))
	if rep.Verdict != VerdictAccepts {
		t.Errorf("verdict = %v, want accepts", rep.Verdict)
	}
}

// TestFilterRaiseEscapes covers the raise escape.
func TestFilterRaiseEscapes(t *testing.T) {
	p, va := loadFilters(t, func(b *asm.Builder) {
		b.Func("f").
			Raise(0xE0000001).
			Ret().
			EndFunc()
		b.Export("f", "f")
	})
	if rep := NewExecutor(p).AnalyzeFilter(va("f")); rep.Verdict != VerdictUnknown {
		t.Errorf("verdict = %v, want unknown", rep.Verdict)
	}
}

// TestFilterYieldAndNop are transparent to the lifter.
func TestFilterYieldAndNop(t *testing.T) {
	p, va := loadFilters(t, func(b *asm.Builder) {
		b.Func("f").
			Nop().
			Yield().
			MovRI(isa.R0, 1).
			Ret().
			EndFunc()
		b.Export("f", "f")
	})
	if rep := NewExecutor(p).AnalyzeFilter(va("f")); rep.Verdict != VerdictAccepts {
		t.Errorf("verdict = %v, want accepts", rep.Verdict)
	}
}
