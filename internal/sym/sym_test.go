package sym

import (
	"testing"

	"crashresist/internal/asm"
	"crashresist/internal/bin"
	"crashresist/internal/isa"
	"crashresist/internal/vm"
)

// loadFilters builds a library of filter functions and loads it into a
// process; returns the process and a VA lookup by exported name.
func loadFilters(t *testing.T, fill func(b *asm.Builder)) (*vm.Process, func(string) uint64) {
	t.Helper()
	b := asm.NewBuilder("filters.dll", bin.KindLibrary)
	fill(b)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := vm.NewProcess(vm.Config{Platform: vm.PlatformWindows, Seed: 11})
	mod, err := p.LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	return p, func(name string) uint64 {
		off, ok := img.Export(name)
		if !ok {
			t.Fatalf("no export %q", name)
		}
		return mod.VA(off)
	}
}

func TestFilterAcceptAll(t *testing.T) {
	p, va := loadFilters(t, func(b *asm.Builder) {
		b.Func("f").MovRI(isa.R0, 1).Ret().EndFunc()
		b.Export("f", "f")
	})
	rep := NewExecutor(p).AnalyzeFilter(va("f"))
	if rep.Verdict != VerdictAccepts {
		t.Errorf("verdict = %v, want accepts (paths: %+v)", rep.Verdict, rep.Paths)
	}
	if rep.Model[SymCode] != uint64(vm.ExcAccessViolation) {
		t.Errorf("model = %v", rep.Model)
	}
}

func TestFilterRejectAll(t *testing.T) {
	p, va := loadFilters(t, func(b *asm.Builder) {
		b.Func("f").MovRI(isa.R0, 0).Ret().EndFunc() // continue search always
		b.Export("f", "f")
	})
	rep := NewExecutor(p).AnalyzeFilter(va("f"))
	if rep.Verdict != VerdictRejects {
		t.Errorf("verdict = %v, want rejects", rep.Verdict)
	}
}

func TestFilterEqualityOnAV(t *testing.T) {
	p, va := loadFilters(t, func(b *asm.Builder) {
		b.Func("f").
			MovRI(isa.R3, uint64(vm.ExcAccessViolation)).
			CmpRR(isa.R1, isa.R3).
			Jz("yes").
			MovRI(isa.R0, 0).
			Ret().
			Label("yes").
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

func TestFilterEqualityOnOtherCode(t *testing.T) {
	// Accepts only divide-by-zero: must be classified as rejecting AV.
	p, va := loadFilters(t, func(b *asm.Builder) {
		b.Func("f").
			MovRI(isa.R3, uint64(vm.ExcDivideByZero)).
			CmpRR(isa.R1, isa.R3).
			Jz("yes").
			MovRI(isa.R0, 0).
			Ret().
			Label("yes").
			MovRI(isa.R0, 1).
			Ret().
			EndFunc()
		b.Export("f", "f")
	})
	rep := NewExecutor(p).AnalyzeFilter(va("f"))
	if rep.Verdict != VerdictRejects {
		t.Errorf("verdict = %v, want rejects", rep.Verdict)
	}
}

func TestFilterExcludesAVExplicitly(t *testing.T) {
	// Catch everything except AV (Firefox-style exclusion inverted):
	// if code == AV → continue search, else execute handler.
	p, va := loadFilters(t, func(b *asm.Builder) {
		b.Func("f").
			MovRI(isa.R3, uint64(vm.ExcAccessViolation)).
			CmpRR(isa.R1, isa.R3).
			Jz("no").
			MovRI(isa.R0, 1).
			Ret().
			Label("no").
			MovRI(isa.R0, 0).
			Ret().
			EndFunc()
		b.Export("f", "f")
	})
	rep := NewExecutor(p).AnalyzeFilter(va("f"))
	if rep.Verdict != VerdictRejects {
		t.Errorf("verdict = %v, want rejects", rep.Verdict)
	}
}

func TestFilterSeverityMask(t *testing.T) {
	// Accept any error-severity exception: (code >> 30) == 3. AV qualifies.
	p, va := loadFilters(t, func(b *asm.Builder) {
		b.Func("f").
			MovRR(isa.R3, isa.R1).
			ShrRI(isa.R3, 30).
			CmpRI(isa.R3, 3).
			Jz("yes").
			MovRI(isa.R0, 0).
			Ret().
			Label("yes").
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

func TestFilterRangeCheckExcludingAV(t *testing.T) {
	// Accept software exceptions 0xE0000000..0xEFFFFFFF only.
	p, va := loadFilters(t, func(b *asm.Builder) {
		b.Func("f").
			MovRI(isa.R3, 0xE0000000).
			CmpRR(isa.R1, isa.R3).
			Jb("no").
			MovRI(isa.R3, 0xF0000000).
			CmpRR(isa.R1, isa.R3).
			Jae("no").
			MovRI(isa.R0, 1).
			Ret().
			Label("no").
			MovRI(isa.R0, 0).
			Ret().
			EndFunc()
		b.Export("f", "f")
	})
	rep := NewExecutor(p).AnalyzeFilter(va("f"))
	if rep.Verdict != VerdictRejects {
		t.Errorf("verdict = %v, want rejects", rep.Verdict)
	}
}

func TestFilterReadsConfigGlobal(t *testing.T) {
	// The post-security-update IE pattern, simplified: the filter's
	// behaviour depends on a config global. Here the global is concrete
	// in the image (0 → reject AV; the code still has an accept path for
	// software exceptions). With config=0 the AV path is dead.
	p, va := loadFilters(t, func(b *asm.Builder) {
		b.Func("f").
			LeaData(isa.R4, "config").
			Load(8, isa.R4, isa.R4, 0).
			TestRR(isa.R4, isa.R4).
			Jnz("maybe").
			MovRI(isa.R0, 0).
			Ret().
			Label("maybe").
			MovRI(isa.R0, 1).
			Ret().
			EndFunc()
		b.DataU64("config", 0)
		b.Export("f", "f")
	})
	rep := NewExecutor(p).AnalyzeFilter(va("f"))
	if rep.Verdict != VerdictRejects {
		t.Errorf("config=0: verdict = %v, want rejects", rep.Verdict)
	}

	// Flip the config in memory: now it accepts.
	p2, va2 := loadFilters(t, func(b *asm.Builder) {
		b.Func("f").
			LeaData(isa.R4, "config").
			Load(8, isa.R4, isa.R4, 0).
			TestRR(isa.R4, isa.R4).
			Jnz("maybe").
			MovRI(isa.R0, 0).
			Ret().
			Label("maybe").
			MovRI(isa.R0, 1).
			Ret().
			EndFunc()
		b.DataU64("config", 1)
		b.Export("f", "f")
	})
	rep2 := NewExecutor(p2).AnalyzeFilter(va2("f"))
	if rep2.Verdict != VerdictAccepts {
		t.Errorf("config=1: verdict = %v, want accepts", rep2.Verdict)
	}
}

func TestFilterCallsHelperInline(t *testing.T) {
	// Filter calls a helper in the same module that computes the check;
	// the executor inlines direct calls.
	p, va := loadFilters(t, func(b *asm.Builder) {
		b.Func("f").
			Call("is_av").
			TestRR(isa.R0, isa.R0).
			Jnz("yes").
			MovRI(isa.R0, 0).
			Ret().
			Label("yes").
			MovRI(isa.R0, 1).
			Ret().
			EndFunc()
		b.Func("is_av").
			MovRI(isa.R3, uint64(vm.ExcAccessViolation)).
			CmpRR(isa.R1, isa.R3).
			Jz("t").
			MovRI(isa.R0, 0).
			Ret().
			Label("t").
			MovRI(isa.R0, 1).
			Ret().
			EndFunc()
		b.Export("f", "f")
	})
	rep := NewExecutor(p).AnalyzeFilter(va("f"))
	if rep.Verdict != VerdictAccepts {
		t.Errorf("verdict = %v, want accepts (paths %+v)", rep.Verdict, rep.Paths)
	}
}

func TestFilterCallingCodeImportIsInlined(t *testing.T) {
	// Cross-module calls to ordinary code are inlined by the executor.
	lib := asm.NewBuilder("helper.dll", bin.KindLibrary)
	lib.Func("decide").MovRI(isa.R0, 1).Ret().EndFunc()
	lib.Export("decide", "decide")
	libImg, err := lib.Build()
	if err != nil {
		t.Fatal(err)
	}

	b := asm.NewBuilder("filters.dll", bin.KindLibrary)
	b.Func("f").
		CallImport("helper.dll", "decide").
		Ret().
		EndFunc()
	b.Export("f", "f")
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	p := vm.NewProcess(vm.Config{Platform: vm.PlatformWindows, Seed: 11})
	if _, err := p.LoadImage(libImg); err != nil {
		t.Fatal(err)
	}
	mod, err := p.LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewExecutor(p).AnalyzeFilter(mod.VA(img.Exports["f"]))
	if rep.Verdict != VerdictAccepts {
		t.Errorf("verdict = %v, want accepts (code import inlined)", rep.Verdict)
	}
}

type acceptAllAPI struct{}

func (acceptAllAPI) Resolve(string) (uint32, error) { return 7, nil }

func (acceptAllAPI) Call(p *vm.Process, t *vm.Thread, id uint32) *vm.Exception {
	t.SetReg(0, 1)
	return nil
}

func TestFilterCallingNativeAPIIsUnknown(t *testing.T) {
	// The post-update IE filter consults a platform API to decide —
	// §VII-A says this requires manual verification. Native APIs cannot
	// be modelled symbolically.
	b := asm.NewBuilder("filters.dll", bin.KindLibrary)
	b.Func("f").
		CallImport("", "RtlQueryExceptionPolicy").
		Ret().
		EndFunc()
	b.Export("f", "f")
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := vm.NewProcess(vm.Config{Platform: vm.PlatformWindows, Seed: 11})
	p.API = acceptAllAPI{}
	mod, err := p.LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewExecutor(p).AnalyzeFilter(mod.VA(img.Exports["f"]))
	if rep.Verdict != VerdictUnknown {
		t.Errorf("verdict = %v, want unknown", rep.Verdict)
	}
}

func TestAnalyzeVEHDisposition(t *testing.T) {
	// A vectored handler accepts by returning CONTINUE_EXECUTION (-1);
	// the same function is NOT an accepting scope filter.
	p, va := loadFilters(t, func(b *asm.Builder) {
		b.Func("veh").
			MovRI(isa.R3, uint64(vm.ExcAccessViolation)).
			CmpRR(isa.R1, isa.R3).
			Jz("resolve").
			MovRI(isa.R0, 0).
			Ret().
			Label("resolve").
			MovRI(isa.R0, 0).
			Not(isa.R0). // -1
			Ret().
			EndFunc()
		b.Export("veh", "veh")
	})
	exec := NewExecutor(p)
	if rep := exec.AnalyzeVEH(va("veh")); rep.Verdict != VerdictAccepts {
		t.Errorf("AnalyzeVEH = %v, want accepts", rep.Verdict)
	}
	if rep := exec.AnalyzeFilter(va("veh")); rep.Verdict != VerdictRejects {
		t.Errorf("AnalyzeFilter on VEH = %v, want rejects (never returns 1)", rep.Verdict)
	}
}

func TestFilterUsesStackLocals(t *testing.T) {
	// Spill the code to a stack local, reload, compare.
	p, va := loadFilters(t, func(b *asm.Builder) {
		b.Func("f").
			SubRI(isa.SP, 16).
			Store(8, isa.SP, 0, isa.R1).
			Load(8, isa.R5, isa.SP, 0).
			AddRI(isa.SP, 16).
			MovRI(isa.R3, uint64(vm.ExcAccessViolation)).
			CmpRR(isa.R5, isa.R3).
			Jz("yes").
			MovRI(isa.R0, 0).
			Ret().
			Label("yes").
			MovRI(isa.R0, 1).
			Ret().
			EndFunc()
		b.Export("f", "f")
	})
	rep := NewExecutor(p).AnalyzeFilter(va("f"))
	if rep.Verdict != VerdictAccepts {
		t.Errorf("verdict = %v, want accepts (paths %+v)", rep.Verdict, rep.Paths)
	}
}

func TestFilterInfiniteLoopBudget(t *testing.T) {
	p, va := loadFilters(t, func(b *asm.Builder) {
		b.Func("f").
			Label("spin").
			Jmp("spin").
			EndFunc()
		b.Export("f", "f")
	})
	rep := NewExecutor(p).AnalyzeFilter(va("f"))
	if rep.Verdict != VerdictUnknown {
		t.Errorf("verdict = %v, want unknown (budget)", rep.Verdict)
	}
}

func TestFilterManyBranches(t *testing.T) {
	// A chain of comparisons against distinct codes, the last being AV.
	p, va := loadFilters(t, func(b *asm.Builder) {
		b.Func("f")
		codes := []uint64{0xC0000094, 0xC000001D, 0xC00000FD, uint64(vm.ExcAccessViolation)}
		for i, c := range codes {
			lbl := "c" + string(rune('0'+i))
			b.MovRI(isa.R3, c).
				CmpRR(isa.R1, isa.R3).
				Jnz(lbl)
			if c == uint64(vm.ExcAccessViolation) {
				b.MovRI(isa.R0, 1).Ret()
			} else {
				b.MovRI(isa.R0, 0).Ret()
			}
			b.Label(lbl)
		}
		b.MovRI(isa.R0, 0).Ret().EndFunc()
		b.Export("f", "f")
	})
	rep := NewExecutor(p).AnalyzeFilter(va("f"))
	if rep.Verdict != VerdictAccepts {
		t.Errorf("verdict = %v, want accepts", rep.Verdict)
	}
}

func TestVerdictString(t *testing.T) {
	if VerdictAccepts.String() != "accepts-av" || VerdictRejects.String() != "rejects-av" ||
		VerdictUnknown.String() != "unknown" || Verdict(9).String() != "verdict?" {
		t.Error("verdict strings wrong")
	}
}
