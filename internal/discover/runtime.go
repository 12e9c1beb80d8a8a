package discover

// The runtime shared by the three pipelines: one configuration struct, one
// per-run object built from it, and one emission path for every unit of
// work.
//
// Every pipeline run fans units out (validation replays, fuzzing batteries,
// classifications, per-DLL symex jobs, the single observation runs), and
// every unit has a deterministic cost. A unit turns its result — freshly
// computed or replayed from a persistent cache entry, which stores the
// cost alongside the result — into one unitCost record and hands it to
// pipelineRun.emit exactly once, after the cache-or-compute branch. emit
// fans the record out to the stage latency histogram, the run counters,
// the cost profile and the detection observer. Every tap is a commutative
// addition on a per-unit value, so run stats, profiles and detect sections
// are identical at any worker count and with any cache state.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"crashresist/internal/cas"
	"crashresist/internal/defense"
	"crashresist/internal/faultinject"
	"crashresist/internal/kernel"
	"crashresist/internal/metrics"
	"crashresist/internal/prof"
	"crashresist/internal/vm"
)

// Runtime is the configuration every discovery pipeline shares. The three
// analyzers are defined types over it, so one literal configures any of
// them and conversions between them are free. The zero value is a valid
// default: GOMAXPROCS workers, no observers, no cache, no chaos.
type Runtime struct {
	// Seed fixes ASLR and every derived RNG, so provenance addresses stay
	// valid between an observation run and its corrupted replays.
	Seed int64
	// Workers bounds every fan-out of the run (servers in AnalyzeAll,
	// validation replays, fuzzing and classification jobs, per-DLL symex);
	// <= 0 selects GOMAXPROCS.
	Workers int
	// Progress receives live stage events. When AnalyzeAll fans servers
	// out, events from concurrent runs interleave; the callback must be
	// safe for concurrent use.
	Progress func(metrics.StageEvent)
	// Sinks receive each run's live events and final RunStats.
	Sinks []metrics.Sink
	// FaultPlan, when non-nil, injects deterministic failures into the
	// run's VM, kernel, symbolic-executor and pool-job sites (chaos mode).
	FaultPlan *faultinject.Plan
	// Retries bounds per-job re-runs after a transient failure. Setting
	// Retries (or FaultPlan) switches failed jobs from aborting the run to
	// degrading: they are dropped and recorded in the report's Degraded.
	Retries int
	// StageTimeout bounds each fanned-out stage; zero means no limit. A
	// timeout cancels the stage and surfaces as a context error.
	StageTimeout time.Duration
	// Cache, when non-nil, persists per-unit results and their costs
	// across runs, keyed by content (see cache.go). Ignored while a
	// FaultPlan is attached: chaos runs must neither read nor write
	// entries shared with clean runs.
	Cache *cas.Cache
	// Profile, when non-nil, receives the run's deterministic cost
	// attribution (see internal/prof). Profiling never touches report
	// contents.
	Profile *prof.Profile
	// Detect, when non-nil, receives the run's detection inputs: benign
	// baselines, per-primitive probe costs and fault series. It never
	// touches report rows — the rendered section rides RunStats.
	Detect *defense.Detect
}

// pipelineRun is one Analyze call's runtime, built once by newRun and
// threaded through every stage: the run's settings, its collector, its
// profile and detect bindings, the resilience log and the cache binding.
type pipelineRun struct {
	// Runtime holds the run's settings. Cache is nil when a fault plan
	// bypasses it.
	Runtime
	pipeline, target string
	col              *metrics.Collector

	mu    sync.Mutex     // guards the degradation log below
	order map[string]int // stage name -> first-seen ordinal
	recs  []degradedRec
}

// newRun binds rt to one run of pipeline against target.
func newRun(rt *Runtime, pipeline, target string) *pipelineRun {
	r := &pipelineRun{Runtime: *rt, pipeline: pipeline, target: target}
	if r.FaultPlan != nil {
		r.Cache = nil
	}
	r.col = metrics.NewCollector(pipeline, target, poolWorkers(r.Workers))
	r.col.SetProgress(r.Progress)
	for _, s := range r.Sinks {
		r.col.AddSink(s)
	}
	return r
}

// stageCtx derives the context a pool stage runs under: the per-stage
// timeout when one is set, the parent context otherwise. The cancel func
// must always be called.
func (r *pipelineRun) stageCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if r.StageTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, r.StageTimeout)
}

// unitCost is one unit of work's deterministic cost record. It is built
// from the unit's result, so a cache hit — whose entry persists the cost —
// yields the same record as the cold compute that stored it.
type unitCost struct {
	latency uint64         // the stage latency-histogram sample
	clock   uint64         // virtual clock ticks charged to the profile
	vm      *vm.Stats      // process counters; nil when no process ran
	kernel  *kernel.Counts // Linux-model dispatch counters; nil otherwise
	probes  uint64         // fuzzing probes issued
	// subs, when set, charges the profile per sub-frame in place of the
	// unit-level clock and instruction charges. Called only while
	// profiling.
	subs func(charge func(unit, sub string, k prof.Kind, n uint64))
	// detect feeds the detection observer. Called only while detecting.
	detect func(r *pipelineRun)
}

// emit publishes one unit's cost record to every observer. Each unit calls
// it exactly once; observers that are off cost nothing.
func (r *pipelineRun) emit(span *metrics.Stage, stage, unit string, c unitCost) {
	span.Observe(c.latency)
	if s := c.vm; s != nil {
		r.col.Add(metrics.CtrInstructions, s.Instructions)
		r.col.Add(metrics.CtrFaults, s.Faults)
		r.col.Add(metrics.CtrFaultsUnmapped, s.FaultsUnmapped)
		r.col.Add(metrics.CtrFaultsHandled, s.FaultsHandled)
		r.col.Add(metrics.CtrSyscalls, s.Syscalls)
		r.col.Add(metrics.CtrAPICalls, s.APICalls)
		r.col.Add(metrics.CtrFaultsInjected, s.FaultsInjected)
	}
	if k := c.kernel; k != nil {
		r.col.Add(metrics.CtrEFAULTReturns, k.EFAULTReturns)
		r.col.Add(metrics.CtrFaultsInjected, k.Injected)
		r.col.AddFaultEvents(k.EFAULTBuckets)
	}
	r.col.Add(metrics.CtrProbes, c.probes)
	if r.Profile != nil {
		if c.subs != nil {
			c.subs(func(unit, sub string, k prof.Kind, n uint64) { r.charge(stage, unit, sub, k, n) })
		} else {
			r.charge(stage, unit, "", prof.KindClockTicks, c.clock)
			if c.vm != nil {
				r.charge(stage, unit, "", prof.KindVMInstructions, c.vm.Instructions)
			}
		}
	}
	if r.Detect != nil && c.detect != nil {
		c.detect(r)
	}
}

// charge adds n units of kind k to pipeline;stage;target;unit[;sub].
func (r *pipelineRun) charge(stage, unit, sub string, k prof.Kind, n uint64) {
	r.Profile.Add(prof.Stack{Pipeline: r.pipeline, Stage: stage, Target: r.target, Unit: unit, Sub: sub}, k, n)
}

// detectRow folds one primitive's probe totals into its detectability row
// and its fault series into the run-level stream.
func (r *pipelineRun) detectRow(primitive string, probes, faults, ticks uint64, profile, series map[uint64]uint64) {
	r.Detect.AddPrimitive(r.pipeline, r.target, primitive, probes, faults, ticks, profile)
	r.Detect.AddSeries(r.pipeline, r.target, series)
}

// detectBaseline folds a benign phase's fault series into the section
// baseline and the run-level stream.
func (r *pipelineRun) detectBaseline(phase string, faults, ticks uint64, series map[uint64]uint64) {
	r.Detect.AddBaseline(r.pipeline, r.target, phase, faults, ticks, series)
	r.Detect.AddSeries(r.pipeline, r.target, series)
}

// finish closes the run after every stage merged: it renders the detect
// section — streaming its detections as typed events, live stream first,
// then baseline trips — and flushes the collector.
func (r *pipelineRun) finish() (*metrics.RunStats, error) {
	if sec := r.Detect.Section(r.pipeline, r.target); sec != nil {
		for _, ev := range sec.Events {
			r.col.Detection(ev)
		}
		if sec.Baseline != nil {
			for _, ev := range sec.Baseline.Events {
				r.col.Detection(ev)
			}
		}
		r.col.SetDetect(sec)
	}
	stats, err := r.col.Finish()
	if err != nil {
		return nil, fmt.Errorf("flush metrics %s: %w", r.target, err)
	}
	return stats, nil
}
