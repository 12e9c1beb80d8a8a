package trace

import (
	"fmt"
	"testing"

	"crashresist/internal/asm"
	"crashresist/internal/bin"
	"crashresist/internal/isa"
	"crashresist/internal/vm"
)

func TestCoverageRecordsGuardedRegions(t *testing.T) {
	b := asm.NewBuilder("app.exe", bin.KindExecutable)
	b.Func("main").Entry("main").
		Call("guarded").
		Halt().
		EndFunc()
	b.Func("guarded").
		Label("g0").
		Nop().
		Label("g0_end").
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
	b.Guard("guarded", "g0", "g0_end", asm.CatchAll, "land")
	b.Guard("cold", "c0", "c0_end", asm.CatchAll, "c0")
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := vm.NewProcess(vm.Config{Platform: vm.PlatformWindows, Seed: 4})
	if _, err := p.LoadImage(img); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	rec.EnableCoverage()
	rec.Attach(p)
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.RunUntilIdle(1_000_000)

	hits := rec.ScopeHits()
	if len(hits) != 1 {
		t.Fatalf("hit scopes = %v, want exactly the executed guard", hits)
	}
	if hits[ScopeKey{Module: "app.exe", Index: 0}] == 0 {
		t.Errorf("hits = %v, want app.exe scope 0", hits)
	}
}

func TestExceptionLog(t *testing.T) {
	b := asm.NewBuilder("app.exe", bin.KindExecutable)
	b.Func("main").Entry("main").
		MovRI(isa.R1, 0xbad0000).
		Label("try").
		Load(8, isa.R0, isa.R1, 0).
		Label("try_end").
		MovRI(isa.R1, 0xbad1000).
		Load(8, isa.R0, isa.R1, 0). // unguarded: crash
		Halt().
		Label("land").
		Jmp("try_end").
		EndFunc()
	b.Guard("main", "try", "try_end", asm.CatchAll, "land")
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := vm.NewProcess(vm.Config{Platform: vm.PlatformWindows, Seed: 4})
	if _, err := p.LoadImage(img); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	rec.EnableExceptionLog()
	rec.Attach(p)
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.RunUntilIdle(1_000_000)

	evs := rec.Exceptions()
	if len(evs) != 2 {
		t.Fatalf("exceptions = %d, want 2", len(evs))
	}
	if !evs[0].Handled || evs[0].HandlerPC == 0 {
		t.Errorf("first exception should be handled: %+v", evs[0])
	}
	if evs[1].Handled {
		t.Errorf("second exception should be fatal: %+v", evs[1])
	}
	if evs[0].Addr != 0xbad0000 || evs[1].Addr != 0xbad1000 {
		t.Errorf("addrs = %#x %#x", evs[0].Addr, evs[1].Addr)
	}
	if !evs[0].Unmapped {
		t.Error("unmapped flag lost")
	}

	rec.ResetExceptions()
	if len(rec.Exceptions()) != 0 {
		t.Error("ResetExceptions did not clear")
	}
}

func TestRatePerSecond(t *testing.T) {
	mk := func(clocks ...uint64) []ExcEvent {
		out := make([]ExcEvent, len(clocks))
		for i, c := range clocks {
			out[i] = ExcEvent{Clock: c}
		}
		return out
	}
	tests := []struct {
		name   string
		events []ExcEvent
		window uint64
		want   uint64
	}{
		{"empty", nil, 100, 0},
		{"zero window", mk(1, 2), 0, 0},
		{"all within", mk(1, 2, 3), 100, 3},
		{"spread", mk(0, 1000, 2000, 3000), 100, 1},
		{"burst", mk(0, 10, 20, 5000, 5010, 5020, 5030), 100, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := RatePerSecond(tt.events, tt.window); got != tt.want {
				t.Errorf("RatePerSecond = %d, want %d", got, tt.want)
			}
		})
	}
}

// TestRatePerSecondHalfOpenWindow pins the window convention to [t, t+w):
// an event exactly one window after another never shares a window with it,
// while one tick earlier both land in the same window. The defense
// engine's bucket evaluator (defense.Evaluate) assumes this convention.
func TestRatePerSecondHalfOpenWindow(t *testing.T) {
	const w = 1_000_000
	boundary := []ExcEvent{{Clock: 0}, {Clock: w}}
	if got := RatePerSecond(boundary, w); got != 1 {
		t.Errorf("events w apart: peak = %d, want 1 (window must be half-open)", got)
	}
	inside := []ExcEvent{{Clock: 0}, {Clock: w - 1}}
	if got := RatePerSecond(inside, w); got != 2 {
		t.Errorf("events w-1 apart: peak = %d, want 2", got)
	}
}

func TestRecorderNoopsWhenDisabled(t *testing.T) {
	b := asm.NewBuilder("app.exe", bin.KindExecutable)
	b.Func("main").Entry("main").Halt().EndFunc()
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := vm.NewProcess(vm.Config{Platform: vm.PlatformWindows, Seed: 4})
	if _, err := p.LoadImage(img); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	rec.Attach(p)
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.RunUntilIdle(1_000_000)
	if len(rec.ScopeHits()) != 0 || len(rec.Exceptions()) != 0 {
		t.Error("disabled recorder collected data")
	}
}

func ExampleRatePerSecond() {
	events := []ExcEvent{{Clock: 0}, {Clock: 50}, {Clock: 60}, {Clock: 5000}}
	fmt.Println(RatePerSecond(events, 100))
	// Output: 3
}
