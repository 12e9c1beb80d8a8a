// Command crbench is the repository benchmark. It drives the public
// crashresist.Run entry point and the job service over in-process HTTP on
// one of four seeded workloads, checks every verdict against a known
// answer, and prints one JSON result line. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

const (
	// A run sets its workload up once to settle one-time process costs,
	// then setupReps more times; setup_s is the median of those.
	setupReps = 5
	// minPasses is the fewest timed passes a run makes, even past its
	// time budget.
	minPasses = 3
)

// endToEnd lists the end-to-end metrics with their units, in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"pass_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"},
	{"job_s_p50", "s"}, {"job_s_p99", "s"}, {"jobs_per_s", "1/s"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics plus a human-readable note per metric
// (sample count, percentile used, or why the layer is idle).
type report struct {
	units   map[string]string
	metrics map[string]metric
	notes   map[string]string
}

func newReport(names []struct{ name, unit string }) *report {
	r := &report{units: map[string]string{}, metrics: map[string]metric{}, notes: map[string]string{}}
	for _, m := range names {
		r.units[m.name] = m.unit
		r.metrics[m.name] = metric{Value: 0, Unit: m.unit}
		r.notes[m.name] = "idle: this workload's pipeline does not call the layer"
	}
	return r
}

func (r *report) set(name string, v float64, note string) {
	unit, ok := r.units[name]
	if !ok {
		panic("undeclared metric " + name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
}

// setSummary records the median of samples.
func (r *report) setSummary(name string, samples []float64, note string) {
	s := Summarize(samples)
	if note != "" {
		note = ", " + note
	}
	r.set(name, s.Median, fmt.Sprintf("median of n=%d%s", s.N, note))
}

// setPerUnit records d divided by n work units, in the metric's unit.
func (r *report) setPerUnit(name string, d time.Duration, n int, note string) {
	scale := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}[r.units[name]]
	r.set(name, float64(d.Nanoseconds())/scale/float64(max(n, 1)), fmt.Sprintf("n=%d calls, %s", n, note))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("crbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: syscall-mega, api-paper, seh-mega or service-syscall")
	seed := fl.Int64("seed", 1, "benchmark seed; picks every generated input")
	seconds := fl.Int("seconds", 20, "measured time per run")
	traced := fl.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	tamper := fl.Bool("tamper", false, "corrupt one unit of every result before verification (self-check)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "crbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	out, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *tamper, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "crbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "crbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passRecord is one timed pass with what was measured around it.
type passRecord struct {
	out     passOut
	wall    time.Duration
	cpu     time.Duration
	rt      runtimeSample
	traced  bool
	spanID  int
	counter map[string]uint64
	// rssMB is the pass's peak resident memory.
	rssMB float64
}

func measure(w workload, seed int64, budget time.Duration, traced, tamper bool, log io.Writer) (*result, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	scratch := filepath.Join(root, ".bench_build", "crbench", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	env := &benchEnv{seeds: deriveSeeds(seed), seed: seed, layouts: w.layouts, scratch: scratch, tamper: tamper}
	host := hostFacts()
	fmt.Fprintf(log, "# crbench workload=%s seed=%d seconds=%.0f trace=%v\n", w.name, seed, budget.Seconds(), traced)
	fmt.Fprintf(log, "# host %s\n", host)

	var tr *Tracer
	if traced {
		tr = newTracer()
	}

	// Set up several times; keep the last instance.
	var inst instance
	var setups, builds []float64
	for i := 0; i <= setupReps; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC()
		id := tr.Begin("setup", 0)
		t0 := time.Now()
		inst, err = w.setup(env, tr, id)
		d := time.Since(t0)
		tr.End(id)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if i > 0 {
			setups = append(setups, d.Seconds())
			builds = append(builds, inst.layers().buildS)
		}
	}
	defer inst.close()

	ctx := context.Background()
	res := &result{}
	var firstErr error
	runPass := func(seedIdx int, tracedPass bool) (passRecord, error) {
		if err := inst.prepare(seedIdx); err != nil {
			return passRecord{}, err
		}
		if w.batch {
			// Return the previous pass's heap to the OS, so the pass's
			// peak resident memory is its own.
			debug.FreeOSMemory()
		}
		resetPeakRSS()
		var st *stageTracer
		var id int
		if tracedPass {
			id = tr.Begin("run", 0)
			st = newStageTracer(tr, id)
		}
		rt0, cpu0, t0 := readRuntime(), cpuTime(), time.Now()
		out := inst.pass(ctx, st)
		rec := passRecord{out: out, wall: time.Since(t0), cpu: cpuTime() - cpu0, rt: readRuntime().minus(rt0), traced: tracedPass, spanID: id}
		tr.End(id)
		rss, err := peakRSSMB()
		if err != nil {
			return rec, err
		}
		rec.rssMB = rss
		rec.counter = sumCounters(out)
		res.Attempted += out.units
		res.Failed += out.failed
		if out.err != nil && firstErr == nil {
			firstErr = out.err
		}
		return rec, nil
	}

	// Passes come in whole cycles: one pass per layout of a fixed panel,
	// or traced/untraced pairs in the traced run.
	cycle := max(len(w.layouts), 1)
	if traced {
		cycle = 2
	}
	var passes []passRecord
	start := time.Now()
	for i := 0; time.Since(start) < budget || i < minPasses || i%cycle != 0; i++ {
		// Every pass draws its own analysis seed, except that the traced
		// run alternates untraced and traced passes in pairs sharing one,
		// so the two are measured on the same layout.
		seedIdx := i
		if traced {
			seedIdx = i / 2
		}
		rec, err := runPass(seedIdx, traced && i%2 == 1)
		if err != nil {
			return nil, err
		}
		passes = append(passes, rec)
	}
	if firstErr != nil {
		fmt.Fprintf(log, "# first verification failure: %v\n", firstErr)
	}
	if w.batch {
		fmt.Fprint(log, "# pass wall s:")
		for _, p := range passes {
			fmt.Fprintf(log, " %.3f", p.wall.Seconds())
		}
		fmt.Fprintln(log)
	}
	res.Correct = res.Failed == 0

	var rep *report
	if traced {
		rep = newReport(perLayer)
		rep.set("targets.build_s", Median(builds), fmt.Sprintf("median of %d setups", len(builds)))
		layerFromPasses(rep, w, passes, tr)
		id := tr.Begin("probes", 0)
		err := probeLayers(inst.layers(), env, tr, id, rep)
		tr.End(id)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(root, ".bench_build", "crbench", fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
		if err := tr.WriteFile(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "# spans written to %s\n", path)
	} else {
		rep = newReport(endToEnd)
		rep.set("setup_s", Median(setups), fmt.Sprintf("median of %d setups", len(setups)))
		endToEndFromPasses(rep, w, passes)
	}
	fmt.Fprintf(log, "# attempted=%d failed=%d fail_ratio=%.6f correct=%v\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), res.Correct)
	for _, m := range metricOrder(traced) {
		fmt.Fprintf(log, "%-28s %14.6g %-6s  %s\n", m, rep.metrics[m].Value, rep.metrics[m].Unit, rep.notes[m])
	}
	res.Metrics = rep.metrics
	return res, nil
}

func metricOrder(traced bool) []string {
	list := endToEnd
	if traced {
		list = perLayer
	}
	names := make([]string, len(list))
	for i, m := range list {
		names[i] = m.name
	}
	return names
}

// sumCounters totals the RunStats counters of a pass.
func sumCounters(out passOut) map[string]uint64 {
	c := make(map[string]uint64)
	for _, st := range out.stats {
		if st == nil {
			continue
		}
		for k, v := range st.Counters {
			c[k] += v
		}
	}
	return c
}

// endToEndFromPasses derives the end-to-end metrics. A job is what one
// user waits for: one whole pipeline run on a batch workload, one API job
// on the service workload.
func endToEndFromPasses(r *report, w workload, passes []passRecord) {
	var wall, cpu, jobs []float64
	var total time.Duration
	for _, p := range passes {
		wall = append(wall, p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		total += p.wall
		if w.batch {
			jobs = append(jobs, p.wall.Seconds())
			continue
		}
		for _, j := range p.out.jobs {
			jobs = append(jobs, j.job.Seconds())
		}
	}
	r.setSummary("pass_s", wall, "")
	r.setSummary("cpu_s", cpu, "process CPU per pass")
	rss := make([]float64, len(passes))
	for i, p := range passes {
		rss[i] = p.rssMB
	}
	r.setSummary("peak_rss_mb", rss, "peak resident memory of each pass")
	s := Summarize(jobs)
	kind := "pipeline runs"
	if !w.batch {
		kind = "service jobs"
	}
	r.set("job_s_p50", s.Median, fmt.Sprintf("n=%d %s", s.N, kind))
	r.set("job_s_p99", s.Tail, fmt.Sprintf("%s of n=%d %s", s.TailLabel(), s.N, kind))
	r.set("jobs_per_s", float64(len(jobs))/total.Seconds(), fmt.Sprintf("%d %s in %.1f s", len(jobs), kind, total.Seconds()))
}

// layerFromPasses derives the per-layer metrics measured on the passes
// themselves: stage spans, counters, runtime totals, service timings and
// the tracing overhead.
func layerFromPasses(r *report, w workload, passes []passRecord, tr *Tracer) {
	var plain, tracedWall []float64
	var alloc, cycles, gcCPU []float64
	stageSums := map[string][]float64{}
	var self []float64
	counters := map[string][]float64{}
	var samples []jobSample
	for _, p := range passes {
		for _, name := range []string{"instructions", "faults_unmapped", "syscalls", "efault_returns", "api_calls",
			"probes", "pool_tasks", "symex_cache_hits", "symex_cache_misses", "symex_cache_uncacheable",
			"cache_hits", "cache_misses"} {
			counters[name] = append(counters[name], float64(p.counter[name]))
		}
		samples = append(samples, p.out.jobs...)
		if !p.traced {
			plain = append(plain, p.wall.Seconds())
			alloc = append(alloc, p.rt.allocBytes/1e6)
			cycles = append(cycles, p.rt.gcCycles)
			gcCPU = append(gcCPU, p.rt.gcCPU)
			continue
		}
		tracedWall = append(tracedWall, p.wall.Seconds())
		if !w.batch {
			continue
		}
		sums := map[string]float64{}
		for _, s := range tr.Children(p.spanID) {
			sums[s.Name] += s.dur().Seconds()
		}
		for _, m := range perLayer {
			if strings.HasPrefix(m.name, "discover.") && m.unit == "s" && m.name != "discover.self_s" {
				stageSums[m.name] = append(stageSums[m.name], sums[strings.TrimSuffix(m.name, "_s")])
			}
		}
		self = append(self, tr.SelfTime(p.spanID).Seconds())
	}
	for name, v := range stageSums {
		if Median(v) > 0 {
			r.setSummary(name, v, "traced passes, summed over targets")
		}
	}
	if w.batch {
		r.setSummary("discover.self_s", self, "traced passes, Run span minus stage spans")
	} else {
		const why = "not measurable from outside: the service streams a job's stage events in bursts, so client timestamps do not bound its stages"
		for _, m := range perLayer {
			if strings.HasPrefix(m.name, "discover.") && m.unit == "s" {
				r.notes[m.name] = why
			}
		}
	}
	med := func(name string) float64 { return Median(counters[name]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perPass := fmt.Sprintf("per pass, median of n=%d", len(passes))
	r.set("discover.pool_tasks", med("pool_tasks"), perPass)
	r.set("vm.instructions", med("instructions"), perPass)
	r.set("vm.faults_unmapped", med("faults_unmapped"), perPass)
	r.set("kernel.syscalls", med("syscalls"), perPass)
	r.set("kernel.efault_returns", med("efault_returns"), perPass)
	r.set("winapi.api_calls", med("api_calls"), perPass)
	r.set("fuzz.probes", med("probes"), perPass)
	r.set("sym.uncacheable", med("symex_cache_uncacheable"), perPass)
	r.set("sym.cache_hit_ratio", ratio(med("symex_cache_hits"), med("symex_cache_hits")+med("symex_cache_misses")), perPass)
	r.set("cas.hit_ratio", ratio(med("cache_hits"), med("cache_hits")+med("cache_misses")), perPass)
	r.setSummary("runtime.alloc_mb", alloc, "untraced passes")
	r.setSummary("runtime.gc_cycles", cycles, "untraced passes")
	r.setSummary("runtime.gc_cpu_s", gcCPU, "untraced passes")
	r.set("bench.tracing_overhead_x", ratio(Median(tracedWall), Median(plain)),
		fmt.Sprintf("median traced pass (n=%d) / median untraced pass (n=%d)", len(tracedWall), len(plain)))
	if len(samples) > 0 {
		serviceLayer(r, samples)
	}
}

// serviceLayer derives the service metrics from the client-side job
// samples and the JobView timestamps.
func serviceLayer(r *report, samples []jobSample) {
	ms := func(f func(j jobSample) time.Duration) []float64 {
		out := make([]float64, len(samples))
		for i, j := range samples {
			out[i] = float64(f(j).Nanoseconds()) / 1e6
		}
		return out
	}
	r.setSummary("service.submit_ms_p50", ms(func(j jobSample) time.Duration { return j.submit }), "POST /v1/jobs")
	r.setSummary("service.result_ms_p50", ms(func(j jobSample) time.Duration { return j.result }), "GET /v1/jobs/{id}")
	kb := make([]float64, len(samples))
	for i, j := range samples {
		kb[i] = float64(j.resultBytes) / 1e3
	}
	r.setSummary("service.result_kb", kb, "")
	wait := Summarize(ms(func(j jobSample) time.Duration { return j.queueWait }))
	run := Summarize(ms(func(j jobSample) time.Duration { return j.run }))
	r.set("service.queue_wait_ms_p50", wait.Median, fmt.Sprintf("n=%d", wait.N))
	r.set("service.queue_wait_ms_p99", wait.Tail, fmt.Sprintf("%s of n=%d", wait.TailLabel(), wait.N))
	r.set("service.run_ms_p50", run.Median, fmt.Sprintf("n=%d", run.N))
	r.set("service.run_ms_p99", run.Tail, fmt.Sprintf("%s of n=%d", run.TailLabel(), run.N))
	r.setSummary("service.overhead_ms_p50", ms(func(j jobSample) time.Duration { return j.job - j.queueWait - j.run }),
		"job latency minus queue wait minus run")
}
