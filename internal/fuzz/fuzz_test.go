package fuzz

import (
	"testing"

	"crashresist/internal/winapi"
)

func smallRegistry(t *testing.T) *winapi.Registry {
	t.Helper()
	r := winapi.NewRegistry()
	r.Register(winapi.Descriptor{Name: "Pure", NArgs: 2, Cat: winapi.CatNoPointer})
	r.Register(winapi.Descriptor{Name: "Graceful1", NArgs: 2, PtrArgs: []int{0}, Cat: winapi.CatKernelValidated})
	r.Register(winapi.Descriptor{Name: "Graceful2", NArgs: 3, PtrArgs: []int{1}, Cat: winapi.CatQueryStruct, Writes: true})
	r.Register(winapi.Descriptor{Name: "Crashy1", NArgs: 2, PtrArgs: []int{0}, Cat: winapi.CatUserDeref})
	r.Register(winapi.Descriptor{Name: "Crashy2", NArgs: 2, PtrArgs: []int{0, 1}, Cat: winapi.CatUserDeref, Writes: true})
	return r
}

func TestFuzzOneGraceful(t *testing.T) {
	r := smallRegistry(t)
	d, _ := r.Lookup("Graceful1")
	f := New(r, 5)
	res, err := f.FuzzOne(d)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CrashResistant {
		t.Errorf("Graceful1 should be crash resistant: %+v", res.Probes)
	}
	if len(res.Probes) != len(InvalidPointers) {
		t.Errorf("probes = %d, want %d", len(res.Probes), len(InvalidPointers))
	}
	for _, pr := range res.Probes {
		if pr.Outcome != OutcomeGraceful {
			t.Errorf("probe %#x outcome = %v", pr.Pointer, pr.Outcome)
		}
		if pr.Ret != winapi.ErrInvalidPointer {
			t.Errorf("probe %#x ret = %d, want error status", pr.Pointer, pr.Ret)
		}
	}
}

func TestFuzzOneCrashy(t *testing.T) {
	r := smallRegistry(t)
	d, _ := r.Lookup("Crashy1")
	f := New(r, 5)
	res, err := f.FuzzOne(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.CrashResistant {
		t.Errorf("Crashy1 must not be crash resistant: %+v", res.Probes)
	}
	crashes := 0
	for _, pr := range res.Probes {
		if pr.Outcome == OutcomeCrash {
			crashes++
		}
	}
	if crashes == 0 {
		t.Error("no probe crashed")
	}
}

// fuzzSummary is the first three stages of the paper's §V-B funnel over a
// whole registry: corpus size, pointer-taking functions, and those that
// survive the battery.
type fuzzSummary struct {
	Total, WithPointer, CrashResistant int
	Results                            []FuncResult
}

// fuzzAll probes every pointer-taking function in the registry, in registry
// order.
func fuzzAll(t *testing.T, f *Fuzzer) fuzzSummary {
	t.Helper()
	sum := fuzzSummary{Total: f.reg.Len()}
	for _, d := range f.reg.All() {
		if !d.HasPointerArg() {
			continue
		}
		sum.WithPointer++
		res, err := f.FuzzOne(d)
		if err != nil {
			t.Fatalf("fuzz %s: %v", d.Name, err)
		}
		if res.CrashResistant {
			sum.CrashResistant++
		}
		sum.Results = append(sum.Results, res)
	}
	return sum
}

func TestFuzzAllSummary(t *testing.T) {
	r := smallRegistry(t)
	sum := fuzzAll(t, New(r, 5))
	if sum.Total != 5 {
		t.Errorf("Total = %d", sum.Total)
	}
	if sum.WithPointer != 4 {
		t.Errorf("WithPointer = %d", sum.WithPointer)
	}
	if sum.CrashResistant != 2 {
		t.Errorf("CrashResistant = %d, want 2", sum.CrashResistant)
	}
	if len(sum.Results) != 4 {
		t.Errorf("Results = %d", len(sum.Results))
	}
}

func TestFuzzAllOnGeneratedCorpusSample(t *testing.T) {
	// A scaled-down corpus with the paper's proportions: the fuzzer must
	// rediscover exactly the generated crash-resistant count, black-box.
	reg, err := winapi.GenerateCorpus(winapi.CorpusParams{
		Seed:             99,
		Total:            200,
		WithPointer:      120,
		CrashResistant:   9,
		QueryStructShare: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := fuzzAll(t, New(reg, 6))
	if sum.Total != 200 || sum.WithPointer != 120 {
		t.Errorf("funnel head = %d/%d", sum.Total, sum.WithPointer)
	}
	if sum.CrashResistant != 9 {
		t.Errorf("CrashResistant = %d, want 9 (black-box rediscovery)", sum.CrashResistant)
	}
	// Cross-check against the generator's hidden categories.
	for _, res := range sum.Results {
		d, ok := reg.ByID(res.ID)
		if !ok {
			t.Fatalf("unknown id %d", res.ID)
		}
		wantResistant := d.Cat == winapi.CatKernelValidated || d.Cat == winapi.CatQueryStruct
		if res.CrashResistant != wantResistant {
			t.Errorf("%s (%v): fuzzer says resistant=%v", d.Name, d.Cat, res.CrashResistant)
		}
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeGraceful.String() != "graceful" || OutcomeCrash.String() != "crash" || Outcome(9).String() != "outcome?" {
		t.Error("outcome strings wrong")
	}
}

// BenchmarkFuzzOne runs the full invalid-pointer battery, one harness
// process per probe, against one graceful and one crashing function.
func BenchmarkFuzzOne(b *testing.B) {
	r := winapi.NewRegistry()
	r.Register(winapi.Descriptor{Name: "Graceful", NArgs: 3, PtrArgs: []int{1}, Cat: winapi.CatQueryStruct, Writes: true})
	r.Register(winapi.Descriptor{Name: "Crashy", NArgs: 2, PtrArgs: []int{0, 1}, Cat: winapi.CatUserDeref})
	graceful, _ := r.Lookup("Graceful")
	crashy, _ := r.Lookup("Crashy")
	f := New(r, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, d := range []*winapi.Descriptor{graceful, crashy} {
			if _, err := f.FuzzOne(d); err != nil {
				b.Fatal(err)
			}
		}
	}
}
