package crashresist

// The analysis entry point: one Request struct and one Run call drive all
// three pipelines. Request doubles as the wire shape of the discovery service's job submissions (the
// serializable subset) — internal/service decodes a Request straight off
// POST /v1/jobs — so library callers and API tenants share one surface.

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"crashresist/internal/cas"
	"crashresist/internal/discover"
	"crashresist/internal/targets"
)

// SchemaV1 is the wire-format version stamped on every JSON document the
// toolkit emits: pipeline reports, Result envelopes, the crtables/crprobe
// artifact bundles, and the job API payloads. See DESIGN.md §11.
const SchemaV1 = discover.WireSchemaV1

// Pipeline selectors for Request.Pipeline.
const (
	// PipelineSyscall is the Linux syscall pipeline (Table I).
	PipelineSyscall = "syscall"
	// PipelineAPI is the Windows API pipeline (the §V-B funnel).
	PipelineAPI = "api"
	// PipelineSEH is the exception-handler pipeline (Tables II/III).
	PipelineSEH = "seh"
)

// Scale selectors for Request.Scale. Small and paper are the hand-built,
// golden-pinned corpora; large and mega extend them with generated
// populations (≥10× and ≥100× the paper corpus) whose results are
// property-checked rather than golden-filed.
const (
	ScaleSmall = "small"
	ScalePaper = "paper"
	ScaleLarge = "large"
	ScaleMega  = "mega"
)

// Request describes one analysis run for Run. The zero value is not
// runnable — at minimum a target must be named or attached.
//
// The exported, json-tagged fields form the v1 wire schema used by the
// discovery service's job API; the `json:"-"` fields are in-process
// attachments (pre-built targets, live callbacks, an open cache) that
// never cross the wire. When both a wire field and its attachment are set,
// the attachment wins.
//
// Report bytes depend only on the target, pipeline, scale, seed and fault
// settings (ChaosSeed, FaultPlan, Retries). Workers, the cache and the
// observers never change them: metrics, profiles and detect sections live
// outside the report rows.
type Request struct {
	// Pipeline selects syscall, api or seh. Empty infers it from the
	// target: servers run syscall, browsers run seh.
	Pipeline string `json:"pipeline,omitempty"`
	// Target names the analysis subject: one of the Table I servers
	// (nginx, cherokee, lighttpd, memcached, postgresql), a browser (ie,
	// firefox), "all" for every Table I server in parallel, a generated
	// server ("gen-<i>"), or "gen" for the whole generated fleet at the
	// request's Scale (syscall pipeline only). Ignored when Server,
	// Servers or Browser is attached.
	Target string `json:"target,omitempty"`
	// Scale sizes the analysis corpus: "small" (the default), "paper",
	// "large" or "mega". For browsers it selects the DLL corpus
	// (large/mega append generated populations); for the generated server
	// targets ("gen", "gen-<i>") it sizes the fleet. The hand-built
	// Table I servers ignore it.
	Scale string `json:"scale,omitempty"`
	// Seed fixes ASLR and every derived RNG; reports are byte-identical
	// per seed at any worker count.
	Seed int64 `json:"seed"`
	// Workers bounds the analysis worker pool; <= 0 selects GOMAXPROCS.
	// The worker count affects wall-clock time only, never report
	// contents.
	Workers int `json:"workers,omitempty"`
	// Retries bounds per-job re-runs after a transient failure (n retries
	// after the first attempt). Setting a retry budget — or any fault
	// plan — switches job failures from aborting the analysis to
	// degrading it: dropped jobs are recorded in the report's Degraded
	// field. Backoff between attempts is virtual: deterministic ticks are
	// counted in CtrBackoffTicks, no wall-clock sleeping happens. With
	// ChaosSeed set and Retries zero, 2 is used; an attached FaultPlan
	// takes Retries as given.
	Retries int `json:"retries,omitempty"`
	// StageTimeout bounds each fanned-out pipeline stage; a stage that
	// exceeds it is cancelled and Run returns a context error. Zero means
	// no limit. Serialized in nanoseconds.
	StageTimeout time.Duration `json:"stage_timeout_ns,omitempty"`
	// ChaosSeed, when non-zero, runs the analysis under the default fault
	// plan seeded with it (chaos mode). Ignored when FaultPlan is attached.
	ChaosSeed int64 `json:"chaos_seed,omitempty"`
	// CacheDir roots a persistent analysis cache (OpenAnalysisCache),
	// degrading silently to an uncached run when the directory is
	// unusable. Callers that want to warn on a bad directory open it
	// themselves and attach Cache. Ignored when Cache is attached.
	CacheDir string `json:"cache_dir,omitempty"`
	// IncludeProfile asks Run to cost-profile the analysis and embed the
	// resulting ProfileSnapshot in the Result (and thus in the service's
	// stored job result). Profiling never changes report bytes.
	IncludeProfile bool `json:"profile,omitempty"`
	// IncludeDetect asks Run to watch the analysis with the detection
	// engine and embed the resulting DetectReport in the Result (and thus
	// in the service's stored job result). Detection trips also stream as
	// typed StageEvents. Detection never changes report bytes.
	IncludeDetect bool `json:"detect,omitempty"`

	// Server attaches a pre-built server target (syscall pipeline).
	Server *ServerTarget `json:"-"`
	// Servers attaches several pre-built server targets, analyzed in
	// parallel with results in input order (syscall pipeline).
	Servers []*ServerTarget `json:"-"`
	// Browser attaches a pre-built browser target (api or seh pipeline).
	Browser *BrowserTarget `json:"-"`
	// FaultPlan attaches a deterministic fault injection plan (chaos
	// mode). Injected failures ride the normal error paths and degrade
	// the affected jobs (see Retries); for a fixed plan seed the degraded
	// set is identical at every worker count. Runs with a fault plan
	// bypass the cache entirely.
	FaultPlan *FaultPlan `json:"-"`
	// Cache attaches an open persistent analysis cache. Cached results
	// are keyed by content hashes of their inputs (target bytes, seed,
	// corruption address), so a changed input re-analyzes exactly the
	// changed units. Caching never changes report bytes — only the
	// cache_* counters in the report's Stats.
	Cache *AnalysisCache `json:"-"`
	// Profile attaches a live cost profile. When set, the run charges
	// its deterministic virtual costs into it; one profile may span
	// several runs (charges accumulate), and for a fixed request it is
	// identical at any worker count and with any cache state. Combined
	// with IncludeProfile the Result also embeds its snapshot. When only
	// IncludeProfile is set, Run profiles into a fresh private profile.
	Profile *Profile `json:"-"`
	// Detect attaches a live detection observer fed the run's fault
	// streams (benign baselines, per-primitive probe batteries, the
	// run-level series the online detector watches); one observer may
	// span several runs (sections accumulate per pipeline/target). The
	// rendered section rides RunStats.Detect and is identical at any
	// worker count and with any cache state. Combined with IncludeDetect
	// the Result also embeds its snapshot. When only IncludeDetect is
	// set, Run watches with a fresh observer on the default calibration
	// panel.
	Detect *Detect `json:"-"`
	// Progress receives live StageEvents as the pipeline moves through
	// its stages. Invocations are serialized — even when a multi-server
	// run interleaves events from parallel per-server runs — so the
	// callback needs no locking of its own.
	Progress func(StageEvent) `json:"-"`
	// Sinks receive the run's live events and final RunStats.
	Sinks []MetricSink `json:"-"`
}

// Result is Run's envelope: exactly one report field matching the resolved
// pipeline is populated (Servers for the multi-server syscall mode). Its
// JSON form — schema-stamped, snake_case — is what the discovery service
// stores and serves as a completed job's result.
type Result struct {
	// Schema is the wire-format version (SchemaV1).
	Schema string `json:"schema"`
	// Pipeline is the resolved pipeline: syscall, api or seh.
	Pipeline string `json:"pipeline"`
	// Target is the resolved target name ("all" for the multi-server run).
	Target string `json:"target"`
	// Syscall is the single-server Table I report.
	Syscall *SyscallReport `json:"syscall,omitempty"`
	// Servers holds the multi-server Table I reports in input order.
	Servers []*SyscallReport `json:"servers,omitempty"`
	// Funnel is the §V-B API funnel report.
	Funnel *APIFunnelReport `json:"funnel,omitempty"`
	// SEH is the Tables II/III report.
	SEH *SEHReport `json:"seh,omitempty"`
	// Profile is the run's cost-profile snapshot, present only when the
	// request set IncludeProfile. Like Stats it lives outside the report
	// fields, so report bytes are identical with profiling on or off.
	Profile *ProfileSnapshot `json:"profile,omitempty"`
	// Detect is the run's detectability report, present only when the
	// request set IncludeDetect. Like Stats it lives outside the report
	// fields, so report bytes are identical with detection on or off.
	Detect *DetectReport `json:"detect,omitempty"`
}

// Report returns the populated report: *SyscallReport, []*SyscallReport,
// *APIFunnelReport or *SEHReport.
func (r *Result) Report() any {
	switch {
	case r == nil:
		return nil
	case r.Syscall != nil:
		return r.Syscall
	case r.Servers != nil:
		return r.Servers
	case r.Funnel != nil:
		return r.Funnel
	case r.SEH != nil:
		return r.SEH
	}
	return nil
}

// RunStats returns the observability records of every run in the result
// (one per analyzed target).
func (r *Result) RunStats() []*RunStats {
	if r == nil {
		return nil
	}
	var out []*RunStats
	switch {
	case r.Syscall != nil:
		out = append(out, r.Syscall.Stats)
	case r.Servers != nil:
		for _, rep := range r.Servers {
			out = append(out, rep.Stats)
		}
	case r.Funnel != nil:
		out = append(out, r.Funnel.Stats)
	case r.SEH != nil:
		out = append(out, r.SEH.Stats)
	}
	return out
}

// DegradedJobs returns every job dropped by graceful degradation across
// the result's reports; empty for clean runs.
func (r *Result) DegradedJobs() []Degraded {
	if r == nil {
		return nil
	}
	var out []Degraded
	switch {
	case r.Syscall != nil:
		out = append(out, r.Syscall.Degraded...)
	case r.Servers != nil:
		for _, rep := range r.Servers {
			out = append(out, rep.Degraded...)
		}
	case r.Funnel != nil:
		out = append(out, r.Funnel.Degraded...)
	case r.SEH != nil:
		out = append(out, r.SEH.Degraded...)
	}
	return out
}

// runtime resolves the request's settings into the runtime the three
// pipelines share.
func (req Request) runtime() *discover.Runtime {
	rt := &discover.Runtime{
		Seed:         req.Seed,
		Workers:      req.Workers,
		Sinks:        req.Sinks,
		FaultPlan:    req.FaultPlan,
		Retries:      req.Retries,
		StageTimeout: req.StageTimeout,
		Cache:        req.Cache,
		Profile:      req.Profile,
		Detect:       req.Detect,
	}
	if rt.FaultPlan == nil && req.ChaosSeed != 0 {
		rt.FaultPlan = DefaultFaultPlan(req.ChaosSeed)
		if rt.Retries == 0 {
			// Chaos without a retry budget degrades every injected fault
			// into a dropped job; mirror the CLIs' default budget instead.
			rt.Retries = 2
		}
	}
	if rt.Cache == nil && req.CacheDir != "" {
		if c, err := cas.Open(req.CacheDir); err == nil {
			rt.Cache = c
		}
	}
	if fn := req.Progress; fn != nil {
		// A multi-server run drives several collectors concurrently;
		// serialize the user's callback across them.
		var mu sync.Mutex
		rt.Progress = func(ev StageEvent) {
			mu.Lock()
			defer mu.Unlock()
			fn(ev)
		}
	}
	return rt
}

// Validate checks the request's declarative fields without building any
// target: pipeline and scale selectors must be known, a target must be
// named or attached, and the pipeline must suit the target kind. Run
// calls it first; services call it to reject a bad request before
// queueing it. Errors match ErrBadParams or ErrUnknownServer via
// errors.Is.
func (req Request) Validate() error {
	switch req.Pipeline {
	case "", PipelineSyscall, PipelineAPI, PipelineSEH:
	default:
		return fmt.Errorf("%w: unknown pipeline %q (want syscall, api or seh)", ErrBadParams, req.Pipeline)
	}
	switch req.Scale {
	case "", ScaleSmall, ScalePaper, ScaleLarge, ScaleMega:
	default:
		return fmt.Errorf("%w: unknown scale %q (want small, paper, large or mega)", ErrBadParams, req.Scale)
	}
	browser := false
	switch {
	case req.Servers != nil, req.Server != nil:
	case req.Browser != nil:
		browser = true
	default:
		switch req.Target {
		case "":
			return fmt.Errorf("%w: request names no target", ErrBadParams)
		case "all", "gen":
		case "ie", "firefox":
			browser = true
		default:
			if idx, ok := targets.ParseGenServerRef(req.Target); ok {
				// Scale is already validated, so the count resolves.
				if n, _ := GenServerCount(req.Scale); idx >= n {
					return fmt.Errorf("%w: generated server %q out of range at scale %q (fleet size %d)",
						ErrBadParams, req.Target, req.Scale, n)
				}
			} else if !slices.Contains(targets.ServerNames(), req.Target) {
				return fmt.Errorf("%w: %q", ErrUnknownServer, req.Target)
			}
		}
	}
	if browser && req.Pipeline == PipelineSyscall {
		return fmt.Errorf("%w: the syscall pipeline needs a server target", ErrBadParams)
	}
	if !browser && (req.Pipeline == PipelineAPI || req.Pipeline == PipelineSEH) {
		return fmt.Errorf("%w: pipeline %q needs a browser target", ErrBadParams, req.Pipeline)
	}
	return nil
}

// Run executes one analysis described by req and returns its result
// envelope. It is the single entry point behind every pipeline and the
// execution core of the discovery service's job API.
//
// Resolution rules: an attached Server/Servers/Browser wins over the
// Target name; an empty Pipeline defaults to syscall for servers and seh
// for browsers; Target "all" fans the syscall pipeline out over every
// Table I server. Run checks req with Validate before building anything,
// so mismatches (a server target with the seh pipeline, an unknown name)
// return errors matching ErrBadParams or ErrUnknownServer. The pipelines
// check ctx between stages and before each job, returning ctx.Err() once
// it is done.
//
// Determinism contract: for a fixed request, the result's reports are
// byte-identical (Stats aside) at any Workers value, with any cache state,
// and whether invoked directly or through the service. The embedded
// profile snapshot (IncludeProfile) shares the contract: identical at any
// worker count, and — ranked report and every cache-invariant kind —
// across cache states.
func Run(ctx context.Context, req Request) (*Result, error) {
	if req.IncludeProfile && req.Profile == nil {
		req.Profile = NewProfile()
	}
	if req.IncludeDetect && req.Detect == nil {
		req.Detect = NewDetect()
	}
	res, err := run(ctx, req)
	if err != nil {
		return nil, err
	}
	if req.IncludeProfile {
		res.Profile = req.Profile.Snapshot()
	}
	if req.IncludeDetect {
		res.Detect = req.Detect.Snapshot()
	}
	return res, nil
}

// run validates, resolves and executes the request, leaving profile and
// detect embedding to Run.
func run(ctx context.Context, req Request) (*Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	rt := req.runtime()
	res := &Result{Schema: SchemaV1, Pipeline: PipelineSyscall, Target: req.Target}
	var err error
	switch {
	case req.Servers != nil:
		res.Target = "all"
		if len(req.Servers) == 1 {
			res.Target = req.Servers[0].Name
		}
		res.Servers, err = (*discover.SyscallAnalyzer)(rt).AnalyzeAll(ctx, req.Servers)
	case req.Server != nil:
		res.Target = req.Server.Name
		res.Syscall, err = (*discover.SyscallAnalyzer)(rt).Analyze(ctx, req.Server)
	case req.Browser != nil:
		res.Target = req.Browser.Name
		err = runBrowser(ctx, rt, req.Pipeline, req.Browser, res)
	case req.Target == "all" || req.Target == "gen":
		var servers []*ServerTarget
		if req.Target == "all" {
			servers, err = Servers()
		} else {
			n, _ := GenServerCount(req.Scale) // Validate checked the scale
			servers, err = GenServers(DefaultGenSeed, n)
		}
		if err == nil {
			res.Servers, err = (*discover.SyscallAnalyzer)(rt).AnalyzeAll(ctx, servers)
		}
	case req.Target == "ie" || req.Target == "firefox":
		build := IE
		if req.Target == "firefox" {
			build = Firefox
		}
		params, _ := BrowserParamsForScale(req.Scale) // Validate checked the scale
		var br *BrowserTarget
		if br, err = build(params); err == nil {
			err = runBrowser(ctx, rt, req.Pipeline, br, res)
		}
	default:
		var srv *ServerTarget
		if srv, err = Server(req.Target); err == nil {
			res.Target = srv.Name
			res.Syscall, err = (*discover.SyscallAnalyzer)(rt).Analyze(ctx, srv)
		}
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runBrowser runs the api pipeline, or the seh pipeline by default, against
// br and stores the report in res.
func runBrowser(ctx context.Context, rt *discover.Runtime, pipeline string, br *BrowserTarget, res *Result) (err error) {
	if pipeline == PipelineAPI {
		res.Pipeline = PipelineAPI
		res.Funnel, err = (*discover.APIAnalyzer)(rt).Analyze(ctx, br)
		return err
	}
	res.Pipeline = PipelineSEH
	res.SEH, err = (*discover.SEHAnalyzer)(rt).Analyze(ctx, br)
	return err
}
