// Package fuzz implements the black-box Windows-API fuzzer of §IV-B/§V-B:
// it calls every API function that takes a pointer argument (per its
// documented signature) with a battery of invalid pointers and classifies
// the function as crash-resistant when every probe returns gracefully
// instead of faulting.
//
// The fuzzer knows only each function's documented signature (argument
// count and which arguments are pointers — the MSDN-derived information the
// paper used); it never consults the generator's behaviour category. Each
// probe runs in a fresh single-shot harness process so a crash cannot
// poison subsequent probes.
package fuzz

import (
	"crashresist/internal/asm"
	"crashresist/internal/bin"
	"crashresist/internal/faultinject"
	"crashresist/internal/vm"
	"crashresist/internal/winapi"
)

// InvalidPointers is the probe battery: NULL, unmapped low, unmapped high,
// and a kernel-space-looking address.
var InvalidPointers = []uint64{
	0,
	0x00000000dead0000,
	0x00007ffffff00000,
	0xffff800000000000,
}

// Outcome classifies one probe.
type Outcome uint8

// Probe outcomes.
const (
	OutcomeGraceful Outcome = iota + 1 // returned, process alive
	OutcomeCrash                       // process died on the probe
)

// String renders the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeGraceful:
		return "graceful"
	case OutcomeCrash:
		return "crash"
	default:
		return "outcome?"
	}
}

// Probe is one invalid-pointer invocation result.
type Probe struct {
	Pointer uint64
	Outcome Outcome
	// Ret is the API return value for graceful probes.
	Ret uint64
	// Instructions counts the instructions the probe's harness process
	// retired — the probe's exact virtual cost, attributable per pointer
	// by the cost profiler. Per-probe costs sum to the FuncResult's Stats.
	Instructions uint64
}

// FuncResult is the fuzzing result for one API function.
type FuncResult struct {
	Name string
	ID   uint32
	// CrashResistant: every invalid-pointer probe returned gracefully.
	CrashResistant bool
	Probes         []Probe
	// Stats sums the harness processes' VM counters across all probes.
	Stats vm.Stats
}

// Fuzzer drives probe campaigns against an API registry.
type Fuzzer struct {
	reg  *winapi.Registry
	seed int64

	// FaultPlan, when non-nil, is attached to every harness process so
	// chaos runs exercise the fuzzer's crash/graceful classification under
	// injected VM faults. Probes stay deterministic: injection is keyed by
	// the harness's virtual clock, which restarts from zero per probe.
	FaultPlan *faultinject.Plan
}

// New creates a fuzzer over the registry. The seed feeds harness-process
// ASLR only.
func New(reg *winapi.Registry, seed int64) *Fuzzer {
	return &Fuzzer{reg: reg, seed: seed}
}

// FuzzOne runs the invalid-pointer battery against one function.
func (f *Fuzzer) FuzzOne(d *winapi.Descriptor) (FuncResult, error) {
	img, err := harnessImage(d)
	if err != nil {
		return FuncResult{}, err
	}
	res := FuncResult{Name: d.Name, ID: d.ID, CrashResistant: true}
	for _, ptr := range InvalidPointers {
		outcome, ret, stats, err := f.runProbe(img, d, ptr)
		if err != nil {
			return FuncResult{}, err
		}
		res.Stats.Add(stats)
		res.Probes = append(res.Probes, Probe{Pointer: ptr, Outcome: outcome, Ret: ret, Instructions: stats.Instructions})
		if outcome != OutcomeGraceful {
			res.CrashResistant = false
		}
	}
	return res, nil
}

// runProbe executes one harness run with the probe pointer in every
// documented pointer-argument slot.
func (f *Fuzzer) runProbe(img *bin.Image, d *winapi.Descriptor, ptr uint64) (Outcome, uint64, vm.Stats, error) {
	p := vm.NewProcess(vm.Config{
		Platform:  vm.PlatformWindows,
		Seed:      f.seed,
		StackSize: 16 * 1024,
		FaultPlan: f.FaultPlan,
	})
	p.API = f.reg
	if _, err := p.LoadImage(img); err != nil {
		return 0, 0, vm.Stats{}, err
	}

	args := [5]uint64{1, 1, 1, 1, 1}
	for _, ai := range d.PtrArgs {
		if ai >= 0 && ai < len(args) {
			args[ai] = ptr
		}
	}
	if _, err := p.Start(args[:]...); err != nil {
		return 0, 0, vm.Stats{}, err
	}
	p.RunUntilIdle(100_000)
	switch p.State {
	case vm.ProcExited:
		return OutcomeGraceful, p.ExitCode, p.Stats, nil
	default:
		return OutcomeCrash, 0, p.Stats, nil
	}
}

// harnessImage builds the one-shot caller: the five argument registers are
// seeded by Start, the import is the function under test, and the return
// value becomes the exit code.
func harnessImage(d *winapi.Descriptor) (*bin.Image, error) {
	b := asm.NewBuilder("fuzz-harness.exe", bin.KindExecutable)
	// R0 holds the API return value at HALT, becoming the exit code.
	b.Func("main").Entry("main").
		CallImport("", d.Name).
		Halt().
		EndFunc()
	return b.Build()
}
