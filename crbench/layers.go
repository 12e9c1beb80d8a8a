package main

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"crashresist"
	"crashresist/internal/bin"
	"crashresist/internal/cas"
	"crashresist/internal/fuzz"
	"crashresist/internal/isa"
	"crashresist/internal/kernel"
	"crashresist/internal/mem"
	"crashresist/internal/seh"
	"crashresist/internal/sym"
	"crashresist/internal/targets"
	"crashresist/internal/trace"
	"crashresist/internal/vm"
	"crashresist/internal/winapi"
)

// layerInputs is what a workload hands the layer probes: its targets, in
// the form its pipeline consumes them, and where its passes left cache
// entries.
type layerInputs struct {
	pipeline    string
	servers     []*crashresist.ServerTarget
	browser     *crashresist.BrowserTarget
	buildS      float64           // setup's target build seconds
	serverBuild func(i int) error // builds one server the way the workload does
	casDir      string            // entries the last pass left behind ("" if cache off)
}

// perLayer lists every per-layer metric with its unit, in report order.
var perLayer = []struct{ name, unit string }{
	{"targets.build_s", "s"}, {"targets.server_build_us", "us"},
	{"discover.syscall.taint_s", "s"}, {"discover.syscall.validate_s", "s"},
	{"discover.api.fuzz_s", "s"}, {"discover.api.harvest_s", "s"}, {"discover.api.classify_s", "s"},
	{"discover.seh.browse_s", "s"}, {"discover.seh.extract_s", "s"}, {"discover.seh.symex_s", "s"}, {"discover.seh.crossref_s", "s"},
	{"discover.self_s", "s"}, {"discover.pool_tasks", "count"},
	{"isa.decode_ns", "ns"},
	{"mem.new_allocator_us", "us"}, {"mem.fetch_exec_ns", "ns"},
	{"vm.new_process_us", "us"}, {"vm.exec_ns", "ns"}, {"vm.instructions", "count"}, {"vm.faults_unmapped", "count"},
	{"bin.load_us", "us"},
	{"kernel.syscalls", "count"}, {"kernel.efault_returns", "count"}, {"kernel.dispatch_ns", "ns"}, {"kernel.spec_for_ns", "ns"},
	{"taint.overhead_x", "x"},
	{"trace.coverage_overhead_x", "x"}, {"winapi.api_calls", "count"},
	{"fuzz.probe_us_p50", "us"}, {"fuzz.probe_us_p99", "us"}, {"fuzz.probes", "count"}, {"fuzz.crash_resistant_ratio", "ratio"},
	{"seh.extract_us", "us"},
	{"sym.filter_us_p50", "us"}, {"sym.filter_us_p99", "us"}, {"sym.steps", "count"}, {"sym.cache_hit_ratio", "ratio"}, {"sym.uncacheable", "count"},
	{"cas.get_us_p50", "us"}, {"cas.get_us_p99", "us"}, {"cas.put_us_p50", "us"}, {"cas.put_us_p99", "us"},
	{"cas.hit_ratio", "ratio"}, {"cas.bytes_mb", "MB"},
	{"service.submit_ms_p50", "ms"}, {"service.result_ms_p50", "ms"}, {"service.result_kb", "KB"},
	{"service.queue_wait_ms_p50", "ms"}, {"service.queue_wait_ms_p99", "ms"},
	{"service.run_ms_p50", "ms"}, {"service.run_ms_p99", "ms"}, {"service.overhead_ms_p50", "ms"},
	{"runtime.alloc_mb", "MB"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_cpu_s", "s"},
	{"bench.tracing_overhead_x", "x"},
}

// Probe sizes: enough calls that each per-call figure is a median over
// hundreds of samples.
const (
	allocatorCalls = 2000
	processCalls   = 500
	specForRounds  = 20000
	// minProbeTime is how long the batch-timed probes (decode, fetch)
	// repeat their sweep at least.
	minProbeTime = 200 * time.Millisecond
	// symGenModules caps the generated modules whose filters the symex
	// probe analyzes (all hand-built modules are always included).
	symGenModules = 1000
	// suiteReps repeats the server-suite sweep for the taint probe.
	suiteReps = 3
)

const (
	probeArenaLow  = 0x0000000100000000
	probeArenaHigh = 0x0000080000000000
)

// probeLayers runs every layer probe that applies to the workload and
// records its metrics in r. Probes for layers the workload's pipeline
// never calls are skipped; their metrics stay at zero, marked idle.
func probeLayers(in *layerInputs, env *benchEnv, tr *Tracer, parent int, r *report) error {
	platform := vm.PlatformLinux
	var benv *targets.BrowserEnv
	var images []*bin.Image
	if in.browser != nil {
		platform = vm.PlatformWindows
		var err error
		if benv, err = in.browser.NewEnv(env.analysisSeed(0)); err != nil {
			return fmt.Errorf("probe env: %w", err)
		}
		for _, m := range benv.Proc.Modules() {
			images = append(images, m.Image)
		}
	}
	for _, s := range in.servers {
		images = append(images, s.Image)
	}

	probe := func(name string, fn func(id int) error) error {
		id := tr.Begin("probe."+name, parent)
		defer tr.End(id)
		if err := fn(id); err != nil {
			return fmt.Errorf("%s probe: %w", name, err)
		}
		return nil
	}

	if in.serverBuild != nil {
		if err := probe("targets", func(int) error {
			us, err := perCallMicros(len(in.servers), in.serverBuild)
			r.setSummary("targets.server_build_us", us, "")
			return err
		}); err != nil {
			return err
		}
	}
	if err := probe("isa", func(id int) error { return probeDecode(images, tr, id, r) }); err != nil {
		return err
	}
	if err := probe("mem", func(id int) error { return probeMem(benv, in.servers, env, r) }); err != nil {
		return err
	}
	if err := probe("vm", func(int) error {
		us, err := perCallMicros(processCalls, func(i int) error {
			vm.NewProcess(vm.Config{Platform: platform, Seed: int64(i)})
			return nil
		})
		r.setSummary("vm.new_process_us", us, "")
		return err
	}); err != nil {
		return err
	}
	if err := probe("bin", func(int) error { return probeLoad(benv, in.servers, platform, env, r) }); err != nil {
		return err
	}
	if len(in.servers) > 0 {
		if err := probe("kernel", func(int) error { return probeKernel(in.servers, env, r) }); err != nil {
			return err
		}
		if err := probe("taint", func(id int) error { return probeSuites(in.servers, env, tr, id, r) }); err != nil {
			return err
		}
	}
	if in.browser != nil {
		if err := probe("trace", func(id int) error { return probeBrowse(in.browser, env, tr, id, r) }); err != nil {
			return err
		}
	}
	if in.pipeline == crashresist.PipelineAPI {
		if err := probe("fuzz", func(int) error { return probeFuzz(in.browser.Params.API, env, r) }); err != nil {
			return err
		}
	}
	if in.pipeline == crashresist.PipelineSEH {
		if err := probe("sym", func(id int) error { return probeSEH(benv, env, tr, id, r) }); err != nil {
			return err
		}
	}
	if in.casDir != "" {
		if err := probe("cas", func(int) error { return probeCAS(in.casDir, r) }); err != nil {
			return err
		}
	}
	return nil
}

// perCallMicros times n calls of fn individually, in microseconds.
func perCallMicros(n int, fn func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return out, err
		}
		out = append(out, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return out, nil
}

// repeatFor runs sweep until at least minProbeTime has passed and returns
// the total time and the summed work units sweep reported.
func repeatFor(sweep func() (units int, err error)) (time.Duration, int, error) {
	var total time.Duration
	var units int
	for total < minProbeTime {
		t0 := time.Now()
		n, err := sweep()
		total += time.Since(t0)
		if err != nil {
			return total, units, err
		}
		if n == 0 {
			break
		}
		units += n
	}
	return total, units, nil
}

// probeDecode times isa.DecodeAll over the text of every workload image.
func probeDecode(images []*bin.Image, tr *Tracer, id int, r *report) error {
	var skipped int
	d, n, err := repeatFor(func() (int, error) {
		var n int
		skipped = 0
		for _, img := range images {
			ins, err := isa.DecodeAll(img.Text)
			if err != nil {
				skipped++
				continue
			}
			n += len(ins)
		}
		return n, nil
	})
	if err != nil {
		return err
	}
	tr.Count(id, "instructions", uint64(n))
	r.setPerUnit("isa.decode_ns", d, n, fmt.Sprintf("%d images, %d with undecodable text skipped", len(images), skipped))
	return nil
}

// probeMem times allocator construction and instruction fetches from the
// workload's loaded code.
func probeMem(benv *targets.BrowserEnv, servers []*crashresist.ServerTarget, env *benchEnv, r *report) error {
	as := mem.NewAddressSpace()
	us, _ := perCallMicros(allocatorCalls, func(i int) error {
		mem.NewAllocator(as, probeArenaLow, probeArenaHigh, env.analysisSeed(0)+int64(i))
		return nil
	})
	r.setSummary("mem.new_allocator_us", us, "")

	var procs []*vm.Process
	if benv != nil {
		procs = append(procs, benv.Proc)
	}
	for _, s := range servers {
		env, err := s.NewEnvNoStart(env.analysisSeed(0))
		if err != nil {
			return err
		}
		procs = append(procs, env.Proc)
	}
	buf := make([]byte, 0, 16)
	d, n, err := repeatFor(func() (int, error) {
		var n int
		for _, p := range procs {
			for _, m := range p.Modules() {
				for off := 0; off < len(m.Image.Text); off += 8 {
					if _, err := p.AS.FetchExec(m.Base+uint64(off), 16, buf); err != nil {
						return n, err
					}
					n++
				}
			}
		}
		return n, nil
	})
	if err != nil {
		return err
	}
	r.setPerUnit("mem.fetch_exec_ns", d, n, "16-byte fetches every 8 bytes of loaded text")
	return nil
}

// probeLoad times LoadImage per module into fresh processes, in the
// workload's load order.
func probeLoad(benv *targets.BrowserEnv, servers []*crashresist.ServerTarget, platform vm.Platform, env *benchEnv, r *report) error {
	var us []float64
	if benv != nil {
		p := vm.NewProcess(vm.Config{Platform: platform, Seed: env.analysisSeed(0)})
		p.API = benv.Reg
		for _, m := range benv.Proc.Modules() {
			t0 := time.Now()
			if _, err := p.LoadImage(m.Image); err != nil {
				return err
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	for _, s := range servers {
		p := vm.NewProcess(vm.Config{Platform: platform, Seed: env.analysisSeed(0)})
		t0 := time.Now()
		if _, err := p.LoadImage(s.Image); err != nil {
			return err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	r.setSummary("bin.load_us", us, "")
	return nil
}

// probeKernel times kernel dispatch while each server boots to its event
// loop, and direct spec-table lookups.
func probeKernel(servers []*crashresist.ServerTarget, env *benchEnv, r *report) error {
	var wall time.Duration
	var dispatched uint64
	for _, s := range servers {
		env, err := s.NewEnvNoStart(env.analysisSeed(0))
		if err != nil {
			return err
		}
		if _, err := env.Proc.Start(); err != nil {
			return err
		}
		t0 := time.Now()
		env.Step()
		wall += time.Since(t0)
		dispatched += env.Kern.Counts().Dispatched
	}
	r.setPerUnit("kernel.dispatch_ns", wall, int(dispatched), "ServerEnv.Step from start to the event loop")

	specs := kernel.Specs()
	t0 := time.Now()
	var hits int
	for i := 0; i < specForRounds; i++ {
		for _, s := range specs {
			if _, ok := kernel.SpecFor(s.Num); ok {
				hits++
			}
		}
	}
	r.setPerUnit("kernel.spec_for_ns", time.Since(t0), hits, "every table row")
	return nil
}

// probeSuites runs every server's test suite with the taint engine
// attached and without it, alternating, and reports execution speed and
// the taint slowdown.
func probeSuites(servers []*crashresist.ServerTarget, env *benchEnv, tr *Tracer, id int, r *report) error {
	var withT, without []float64
	var instr uint64
	for rep := 0; rep < suiteReps; rep++ {
		for _, tainted := range []bool{true, false} {
			var wall time.Duration
			var n uint64
			for _, s := range servers {
				env, err := s.NewEnvNoStart(env.analysisSeed(0))
				if err != nil {
					return err
				}
				if !tainted {
					env.Proc.Flow = nil
				}
				t0 := time.Now()
				if err := env.Boot(); err != nil {
					return err
				}
				if err := s.Suite(env); err != nil {
					return fmt.Errorf("%s suite: %w", s.Name, err)
				}
				wall += time.Since(t0)
				n += env.Proc.Stats.Instructions
			}
			if tainted {
				withT = append(withT, float64(wall.Nanoseconds()))
				instr = n
			} else {
				without = append(without, float64(wall.Nanoseconds()))
			}
		}
	}
	tr.Count(id, "instructions", instr)
	r.set("vm.exec_ns", Median(withT)/float64(max(instr, 1)), "server suites with taint, ns per instruction")
	r.set("taint.overhead_x", Median(withT)/Median(without), fmt.Sprintf("median of %d sweeps each", suiteReps))
	return nil
}

// probeBrowse runs the browse workload with a coverage recorder attached
// and without one.
func probeBrowse(br *crashresist.BrowserTarget, env *benchEnv, tr *Tracer, id int, r *report) error {
	browse := func(coverage bool) (time.Duration, uint64, error) {
		env, err := br.NewEnv(env.analysisSeed(0))
		if err != nil {
			return 0, 0, err
		}
		if coverage {
			rec := trace.NewRecorder()
			rec.EnableCoverage()
			rec.Attach(env.Proc)
		}
		if err := env.Start(); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		err = env.Browse()
		return time.Since(t0), env.Proc.Stats.Instructions, err
	}
	plain, instr, err := browse(false)
	if err != nil {
		return err
	}
	covered, _, err := browse(true)
	if err != nil {
		return err
	}
	tr.Count(id, "instructions", instr)
	r.set("vm.exec_ns", float64(plain.Nanoseconds())/float64(max(instr, 1)), "browse without recorder, ns per instruction")
	r.set("trace.coverage_overhead_x", covered.Seconds()/plain.Seconds(), "one browse each")
	return nil
}

// probeFuzz runs FuzzOne over every pointer-argument API of the
// browser's API corpus, as the pipeline's fuzz stage does.
func probeFuzz(params winapi.CorpusParams, env *benchEnv, r *report) error {
	reg, err := winapi.GenerateCorpus(params)
	if err != nil {
		return err
	}
	f := fuzz.New(reg, env.analysisSeed(0))
	var us []float64
	var resistant int
	for _, d := range reg.All() {
		if !d.HasPointerArg() {
			continue
		}
		t0 := time.Now()
		res, err := f.FuzzOne(d)
		if err != nil {
			return fmt.Errorf("fuzz %s: %w", d.Name, err)
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		if res.CrashResistant {
			resistant++
		}
	}
	s := Summarize(us)
	r.set("fuzz.probe_us_p50", s.Median, fmt.Sprintf("n=%d FuzzOne calls", s.N))
	r.set("fuzz.probe_us_p99", s.Tail, fmt.Sprintf("%s of n=%d", s.TailLabel(), s.N))
	r.set("fuzz.crash_resistant_ratio", float64(resistant)/float64(max(s.N, 1)),
		fmt.Sprintf("%d crash-resistant of %d fuzzed", resistant, s.N))
	return nil
}

// probeSEH times scope-table extraction per library module and uncached
// filter analysis over every hand-built module plus a seeded sample of
// generated ones.
func probeSEH(benv *targets.BrowserEnv, env *benchEnv, tr *Tracer, id int, r *report) error {
	var extract []float64
	var hand, gen []*bin.Module
	invs := make(map[*bin.Module]seh.ModuleInventory)
	for _, m := range benv.Proc.Modules() {
		if m.Image.Kind != bin.KindLibrary {
			continue
		}
		t0 := time.Now()
		inv := seh.Extract(m)
		extract = append(extract, float64(time.Since(t0).Nanoseconds())/1e3)
		invs[m] = inv
		if strings.HasPrefix(m.Image.Name, "gdl") {
			gen = append(gen, m)
		} else {
			hand = append(hand, m)
		}
	}
	r.setSummary("seh.extract_us", extract, "")

	rng := rand.New(rand.NewSource(env.analysisSeed(0)))
	rng.Shuffle(len(gen), func(i, j int) { gen[i], gen[j] = gen[j], gen[i] })
	sample := append(hand, gen[:min(symGenModules, len(gen))]...)
	exec := sym.NewExecutor(benv.Proc)
	var us []float64
	var steps uint64
	for _, m := range sample {
		for _, f := range invs[m].Filters {
			t0 := time.Now()
			rep := exec.AnalyzeFilterIn(m, f)
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
			steps += uint64(rep.Steps)
		}
	}
	tr.Count(id, "filters", uint64(len(us)))
	tr.Count(id, "steps", steps)
	s := Summarize(us)
	note := fmt.Sprintf("%d hand-built + %d generated modules", len(hand), len(sample)-len(hand))
	r.set("sym.filter_us_p50", s.Median, fmt.Sprintf("n=%d filters, %s", s.N, note))
	r.set("sym.filter_us_p99", s.Tail, fmt.Sprintf("%s of n=%d", s.TailLabel(), s.N))
	r.set("sym.steps", float64(steps), "symbolic steps over the sampled filters")
	return nil
}

// probeCAS replays every entry a pass left in dir: Get into a raw JSON
// message from the same directory, then Put of that payload into a fresh
// one.
func probeCAS(dir string, r *report) error {
	type entry struct {
		family string
		key    cas.Key
	}
	var entries []entry
	var bytes int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".cce") {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		raw, err := hex.DecodeString(strings.TrimSuffix(filepath.Base(path), ".cce"))
		if err != nil || len(raw) != len(cas.Key{}) {
			return fmt.Errorf("unexpected cache entry %s", rel)
		}
		var k cas.Key
		copy(k[:], raw)
		info, err := d.Info()
		if err != nil {
			return err
		}
		bytes += info.Size()
		entries = append(entries, entry{family: strings.Split(rel, string(filepath.Separator))[0], key: k})
		return nil
	})
	if err != nil {
		return err
	}
	src, err := cas.Open(dir)
	if err != nil {
		return err
	}
	dstDir := dir + "-replay"
	defer os.RemoveAll(dstDir)
	dst, err := cas.Open(dstDir)
	if err != nil {
		return err
	}
	var get, put []float64
	for _, e := range entries {
		var payload json.RawMessage
		t0 := time.Now()
		res := src.Get(e.family, e.key, &payload)
		get = append(get, float64(time.Since(t0).Nanoseconds())/1e3)
		if !res.Hit {
			return fmt.Errorf("replayed Get of %s/%s missed", e.family, e.key)
		}
		t1 := time.Now()
		if !dst.Put(e.family, e.key, payload).Stored {
			return fmt.Errorf("replayed Put of %s/%s failed", e.family, e.key)
		}
		put = append(put, float64(time.Since(t1).Nanoseconds())/1e3)
	}
	g, p := Summarize(get), Summarize(put)
	r.set("cas.get_us_p50", g.Median, fmt.Sprintf("n=%d entries", g.N))
	r.set("cas.get_us_p99", g.Tail, fmt.Sprintf("%s of n=%d", g.TailLabel(), g.N))
	r.set("cas.put_us_p50", p.Median, fmt.Sprintf("n=%d entries", p.N))
	r.set("cas.put_us_p99", p.Tail, fmt.Sprintf("%s of n=%d", p.TailLabel(), p.N))
	r.set("cas.bytes_mb", float64(bytes)/1e6, fmt.Sprintf("%d entries", len(entries)))
	return nil
}
