package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"crashresist"
)

// workers is the analysis worker pool of every batch pass, matching the
// two-core host the benchmark was calibrated on.
const workers = 2

// benchEnv is what every workload's setup receives.
type benchEnv struct {
	seeds   Seeds
	seed    int64
	layouts []int64 // the workload's fixed analysis-seed panel, if any
	scratch string  // private directory inside the checkout
	tamper  bool
}

// analysisSeed is the Request.Seed of pass seedIdx.
func (e *benchEnv) analysisSeed(seedIdx int) int64 {
	if len(e.layouts) > 0 {
		return e.layouts[seedIdx%len(e.layouts)]
	}
	return e.seeds.Analysis(seedIdx)
}

// passOut is the outcome of one timed pass.
type passOut struct {
	units, failed int
	err           error // first verification failure, for the log
	stats         []*crashresist.RunStats
	jobs          []jobSample // service-syscall only
}

// instance is one set-up workload.
type instance interface {
	// prepare readies the next pass, to run with analysis seed number
	// seedIdx; it is not timed.
	prepare(seedIdx int) error
	// pass runs one timed, verified unit of work. A non-nil st records
	// stage spans under the pass's span.
	pass(ctx context.Context, st *stageTracer) passOut
	// layers is what the traced run's layer probes run on.
	layers() *layerInputs
	close()
}

// workload is one benchmark workload; README.md records why each was
// chosen.
type workload struct {
	name string
	// batch workloads report one pipeline run as one job; the service
	// workload reports individual API jobs.
	batch bool
	// layouts, when set, is a fixed panel of analysis seeds the passes
	// cycle through instead of drawing one per pass from the benchmark
	// seed; runs then time whole cycles of the panel.
	layouts []int64
	setup   func(env *benchEnv, tr *Tracer, parent int) (instance, error)
}

var workloads = []workload{
	{
		name:  "syscall-mega",
		batch: true,
		setup: setupSyscallMega,
	},
	{
		name:  "api-paper",
		batch: true,
		setup: setupAPIPaper,
	},
	{
		name:  "seh-mega",
		batch: true,
		// One browser process holds all 18,887 modules, and its browse
		// cost depends on where ASLR places them (FindModule scans the
		// module list linearly): a single layout moves the pass time by
		// up to 3x. Seed-drawn layouts made per-run medians swing by
		// 30%, so this workload times the same three layouts every run.
		layouts: []int64{1, 2, 3},
		setup:   setupSEHMega,
	},
	{
		name:  "service-syscall",
		setup: setupService,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// batchInstance runs one crashresist.Run per pass.
type batchInstance struct {
	env   *benchEnv
	req   crashresist.Request
	check func(res *crashresist.Result) (units, failed int, err error)
	in    *layerInputs

	seedIdx int

	// freshCAS gives every pass an empty on-disk cache in a new directory.
	freshCAS bool
	casDir   string
	cache    *crashresist.AnalysisCache
	casSeq   int
}

func (b *batchInstance) prepare(seedIdx int) error {
	b.seedIdx = seedIdx
	if !b.freshCAS {
		return nil
	}
	if b.casDir != "" {
		if err := os.RemoveAll(b.casDir); err != nil {
			return fmt.Errorf("remove cache dir: %w", err)
		}
	}
	b.casSeq++
	b.casDir = filepath.Join(b.env.scratch, fmt.Sprintf("cas-%d", b.casSeq))
	c, err := crashresist.OpenAnalysisCache(b.casDir)
	if err != nil {
		return err
	}
	b.cache = c
	return nil
}

func (b *batchInstance) pass(ctx context.Context, st *stageTracer) passOut {
	req := b.req
	req.Seed = b.env.analysisSeed(b.seedIdx)
	req.Cache = b.cache
	if st != nil {
		req.Progress = st.onEvent
	}
	res, err := crashresist.Run(ctx, req)
	if err != nil {
		units, _, _ := b.check(nil)
		return passOut{units: units, failed: units, err: err}
	}
	if b.env.tamper {
		tamperResult(res)
	}
	units, failed, err := b.check(res)
	return passOut{units: units, failed: failed, err: err, stats: res.RunStats()}
}

func (b *batchInstance) layers() *layerInputs {
	b.in.casDir = b.casDir
	return b.in
}

func (b *batchInstance) close() {
	if b.casDir != "" {
		os.RemoveAll(b.casDir)
	}
}

// timed runs fn under a span named name and returns its wall time.
func timed(tr *Tracer, parent int, name string, fn func() error) (time.Duration, error) {
	id := tr.Begin(name, parent)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	tr.End(id)
	return d, err
}

func setupSyscallMega(env *benchEnv, tr *Tracer, parent int) (instance, error) {
	n, err := crashresist.GenServerCount(crashresist.ScaleMega)
	if err != nil {
		return nil, err
	}
	var servers []*crashresist.ServerTarget
	build, err := timed(tr, parent, "targets.build", func() error {
		paper, err := crashresist.Servers()
		if err != nil {
			return err
		}
		gen, err := crashresist.GenServers(env.seeds.Gen, n)
		if err != nil {
			return err
		}
		servers = append(paper, gen...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	profiles := crashresist.GenServerProfiles(env.seeds.Gen, n)
	nPaper := len(servers) - n
	check := func(res *crashresist.Result) (int, int, error) {
		units := len(servers)
		if res == nil || len(res.Servers) != units {
			return units, units, fmt.Errorf("syscall: want %d reports", units)
		}
		var failed int
		var first error
		for i, rep := range res.Servers {
			var prof *crashresist.GenServerProfile
			if i >= nPaper {
				prof = &profiles[i-nPaper]
			}
			if err := checkServer(rep, prof); err != nil {
				failed++
				if first == nil {
					first = err
				}
			}
		}
		return units, failed, first
	}
	return &batchInstance{
		env:   env,
		req:   crashresist.Request{Servers: servers, Workers: workers},
		check: check,
		in: &layerInputs{
			pipeline: crashresist.PipelineSyscall, servers: servers,
			buildS: build.Seconds(), serverBuild: genServerBuilder(env.seeds.Gen, n),
		},
	}, nil
}

func setupAPIPaper(env *benchEnv, tr *Tracer, parent int) (instance, error) {
	var br *crashresist.BrowserTarget
	build, err := timed(tr, parent, "targets.build", func() error {
		var err error
		br, err = crashresist.IE(crashresist.PaperBrowserParams())
		return err
	})
	if err != nil {
		return nil, err
	}
	check := func(res *crashresist.Result) (int, int, error) {
		if res == nil {
			return 1, 1, fmt.Errorf("api: no result")
		}
		if err := checkFunnel(res.Funnel); err != nil {
			return 1, 1, err
		}
		return 1, 0, nil
	}
	return &batchInstance{
		env: env,
		req: crashresist.Request{
			Browser: br, Pipeline: crashresist.PipelineAPI, Workers: workers,
		},
		check: check,
		in:    &layerInputs{pipeline: crashresist.PipelineAPI, browser: br, buildS: build.Seconds()},
	}, nil
}

func setupSEHMega(env *benchEnv, tr *Tracer, parent int) (instance, error) {
	// The mega population at DefaultGenSeed: a different population
	// moves the module layout as much as a different analysis seed.
	params := crashresist.MegaBrowserParams()
	var br *crashresist.BrowserTarget
	build, err := timed(tr, parent, "targets.build", func() error {
		var err error
		br, err = crashresist.IE(params)
		return err
	})
	if err != nil {
		return nil, err
	}
	check := func(res *crashresist.Result) (int, int, error) {
		var rep *crashresist.SEHReport
		if res != nil {
			rep = res.SEH
		}
		return checkSEH(rep, br.Plan)
	}
	return &batchInstance{
		env: env,
		req: crashresist.Request{
			Browser: br, Pipeline: crashresist.PipelineSEH, Workers: workers,
		},
		check:    check,
		freshCAS: true,
		in:       &layerInputs{pipeline: crashresist.PipelineSEH, browser: br, buildS: build.Seconds()},
	}, nil
}

// genServerBuilder builds generated fleet members round-robin, so the
// server-build probe times the constructor the workload's setup uses.
func genServerBuilder(seed int64, n int) func(i int) error {
	return func(i int) error {
		_, err := crashresist.GenServer(seed, i%n)
		return err
	}
}

// stageTracer turns a Run's StageBegin/StageEnd progress events into
// spans under the Run's span, timestamped by the benchmark on arrival.
type stageTracer struct {
	tr     *Tracer
	runID  int
	mu     sync.Mutex
	begins map[string]time.Time
}

func newStageTracer(tr *Tracer, runID int) *stageTracer {
	return &stageTracer{tr: tr, runID: runID, begins: make(map[string]time.Time)}
}

// stageSpanName is the span name of a pipeline stage, e.g.
// "discover.seh.crossref".
func stageSpanName(pipeline, stage string) string {
	return "discover." + pipeline + "." + strings.ReplaceAll(stage, "-", "")
}

func (s *stageTracer) onEvent(ev crashresist.StageEvent) {
	now := time.Now()
	key := ev.Pipeline + "/" + ev.Target + "/" + ev.Stage
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Kind {
	case crashresist.StageBegin:
		s.begins[key] = now
	case crashresist.StageEnd:
		if t0, ok := s.begins[key]; ok {
			s.tr.Add(stageSpanName(ev.Pipeline, ev.Stage), s.runID, t0, now)
			delete(s.begins, key)
		}
	}
}
