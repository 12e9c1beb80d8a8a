package trace

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"crashresist/internal/asm"
	"crashresist/internal/bin"
	"crashresist/internal/isa"
	"crashresist/internal/vm"
)

// pcLog wraps a Recorder and logs every executed PC, so a test can replay
// the run through a reference attribution.
type pcLog struct {
	*Recorder
	pcs []uint64
}

func (l *pcLog) OnInstruction(t *vm.Thread, pc uint64, ins isa.Instruction) {
	l.pcs = append(l.pcs, pc)
	l.Recorder.OnInstruction(t, pc, ins)
}

// linearScopeHits is the reference coverage attribution: each PC goes to
// the first scoped module, in load order, whose span holds it, then to
// every scope the sorted-Begin lookback of recordCoverage reaches.
// Modules without a scope table take no hits.
func linearScopeHits(mods []*bin.Module, pcs []uint64) map[ScopeKey]uint64 {
	hits := make(map[ScopeKey]uint64)
	for _, pc := range pcs {
		for _, m := range mods {
			scopes := m.Image.Scopes
			if len(scopes) == 0 || pc < m.Base || pc >= m.Base+m.Image.Span() {
				continue
			}
			order := make([]int, len(scopes))
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool { return scopes[order[a]].Begin < scopes[order[b]].Begin })
			off := m.OffsetOf(pc)
			hi := sort.Search(len(order), func(i int) bool { return scopes[order[i]].Begin > off })
			for i := hi - 1; i >= 0; i-- {
				if scopes[order[i]].End <= off {
					if hi-i > 8 {
						break
					}
					continue
				}
				hits[ScopeKey{Module: m.Image.Name, Index: order[i]}]++
			}
			break
		}
	}
	return hits
}

// buildInterleavedProcess loads n libraries, every other one without a
// scope table, plus an executable that calls each library in turn. Scoped
// libraries guard nested and cold ranges.
func buildInterleavedProcess(t *testing.T, n int, seed int64) *vm.Process {
	t.Helper()
	p := vm.NewProcess(vm.Config{Platform: vm.PlatformWindows, Seed: seed})
	for i := 0; i < n; i++ {
		b := asm.NewBuilder(fmt.Sprintf("lib%02d.dll", i), bin.KindLibrary)
		b.Func("f").
			Label("outer").
			Nop().
			Label("inner").
			Nop().
			Nop().
			Label("inner_end").
			Nop().
			Label("outer_end").
			Nop().
			Ret().
			Label("land").
			Ret().
			EndFunc()
		b.Func("cold").
			Label("c0").
			Nop().
			Label("c0_end").
			Ret().
			EndFunc()
		b.Export("f", "f")
		if i%2 == 0 {
			b.Guard("f", "outer", "outer_end", asm.CatchAll, "land")
			b.Guard("f", "inner", "inner_end", asm.CatchAll, "land")
			b.Guard("cold", "c0", "c0_end", asm.CatchAll, "c0")
		}
		img, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.LoadImage(img); err != nil {
			t.Fatal(err)
		}
	}
	b := asm.NewBuilder("app.exe", bin.KindExecutable)
	b.Func("main").Entry("main")
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			b.CallImport(fmt.Sprintf("lib%02d.dll", i), "f")
		}
	}
	b.Label("tail").Nop().Label("tail_end").Halt().EndFunc()
	b.Guard("main", "tail", "tail_end", asm.CatchAll, "tail_end")
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.LoadImage(img); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCoverageInterleavedScopelessModules checks recordCoverage against
// the linear reference when scoped and scope-less modules alternate in the
// address space, so the locality cache keeps switching between modules
// with and without a scope index.
func TestCoverageInterleavedScopelessModules(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p := buildInterleavedProcess(t, 24, seed)
			if n := scopeTransitions(p.Modules()); n < 4 {
				t.Fatalf("layout interleaves scoped and scope-less modules only %d times", n)
			}
			rec := NewRecorder()
			rec.EnableCoverage()
			rec.Attach(p)
			log := &pcLog{Recorder: rec}
			p.Tracer = log
			if _, err := p.Start(); err != nil {
				t.Fatal(err)
			}
			p.RunUntilIdle(1_000_000)
			if p.State != vm.ProcExited {
				t.Fatalf("state = %v crash=%v", p.State, p.Crash)
			}

			want := linearScopeHits(p.Modules(), log.pcs)
			if got := rec.ScopeHits(); !reflect.DeepEqual(got, want) {
				t.Errorf("ScopeHits differs from the linear attribution:\n got: %v\nwant: %v", got, want)
			}
			// 12 scoped libraries × (outer + inner) + the app's tail.
			if len(want) != 25 {
				t.Errorf("%d scopes hit, want 25: %v", len(want), want)
			}
		})
	}
}

// scopeTransitions counts, in address order, the neighbouring module pairs
// where one has a scope table and the other has none.
func scopeTransitions(mods []*bin.Module) int {
	sorted := append([]*bin.Module(nil), mods...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Base < sorted[j].Base })
	n := 0
	for i := 1; i < len(sorted); i++ {
		if (len(sorted[i].Image.Scopes) == 0) != (len(sorted[i-1].Image.Scopes) == 0) {
			n++
		}
	}
	return n
}
