package discover

// Resilience machinery shared by the three pipelines: deterministic fault
// injection at the pool.job site, bounded per-job retry with virtual
// backoff, and graceful degradation.
//
// The design preserves the package's determinism contract. Injection
// decisions are stateless hashes of (plan seed, site, job key, attempt), so
// every worker count draws the same faults; retried attempts advance the
// attempt number, so transient faults clear deterministically. A job that
// exhausts its retries does not abort the run: it leaves its
// index-addressed result slot at the zero value and files a typed Degraded
// record, and the merge stages skip the empty slots. Records are ordered by
// (stage execution order, job index), never by scheduling.
//
// A run with neither a plan nor a retry budget short-circuits job to a
// plain fn(0) call with the error propagated unchanged, so the default
// configuration is byte-identical to the pre-resilience pipelines.

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"crashresist/internal/faultinject"
	"crashresist/internal/metrics"
	"crashresist/internal/prof"
)

// ErrDegraded marks a pipeline result that is partial because one or more
// jobs exhausted their retries. Use errors.Is to detect it through wrapping.
var ErrDegraded = errors.New("pipeline degraded")

// Degraded records one job that failed past its retry budget and was
// dropped from the report instead of aborting the run. The records a run
// produces are a deterministic function of the fault plan's seed.
type Degraded struct {
	// Stage names the pipeline stage the job belonged to.
	Stage string `json:"stage"`
	// Key identifies the job within the stage (syscall/arg, API name,
	// module name, ...).
	Key string `json:"key"`
	// Job is the job's index in the stage's work list.
	Job int `json:"job"`
	// Attempts counts how many times the job ran before degrading.
	Attempts int `json:"attempts"`
	// Err is the final attempt's error text.
	Err string `json:"error"`
}

type degradedRec struct {
	ord int
	d   Degraded
}

// job executes one job with injection, bounded retry and degradation. The
// job key feeds the pool.job injection site as Key(target, stage, jobKey).
// Context errors are returned immediately — cancellation is never retried
// or degraded. Transient failures retry up to the budget, accumulating
// 1<<attempt virtual backoff ticks per retry (no wall-clock sleep, so runs
// stay fast and deterministic). A job that exhausts the budget, or fails
// permanently, files a Degraded record and returns nil so the stage
// continues; its result slot keeps the zero value.
func (r *pipelineRun) job(ctx context.Context, stage, jobKey string, job int, fn func(attempt int) error) error {
	if r.FaultPlan == nil && r.Retries <= 0 {
		return fn(0)
	}
	key := faultinject.Key(r.target, stage, jobKey)
	var err error
	attempts := 0
	for attempt := 0; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		attempts = attempt + 1
		if ierr := r.FaultPlan.ErrAttempt(faultinject.SitePoolJob, key, attempt); ierr != nil {
			r.col.Add(metrics.CtrFaultsInjected, 1)
			err = fmt.Errorf("%s job %q: %w", stage, jobKey, ierr)
		} else {
			err = fn(attempt)
		}
		if err == nil {
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if attempt < r.Retries && faultinject.IsTransient(err) {
			r.col.Add(metrics.CtrRetries, 1)
			r.col.Add(metrics.CtrBackoffTicks, uint64(1)<<attempt)
			// Retry decisions are a stateless hash of (seed, site, key,
			// attempt), so these charges are scheduling-independent too.
			r.charge(stage, jobKey, "", prof.KindRetries, 1)
			r.charge(stage, jobKey, "", prof.KindBackoffTicks, uint64(1)<<attempt)
			continue
		}
		break
	}
	r.degrade(stage, jobKey, job, attempts, err)
	return nil
}

// degrade files one degradation record and bumps the counter.
func (r *pipelineRun) degrade(stage, jobKey string, job, attempts int, err error) {
	r.col.Add(metrics.CtrDegraded, 1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.order == nil {
		r.order = make(map[string]int)
	}
	ord, ok := r.order[stage]
	if !ok {
		ord = len(r.order)
		r.order[stage] = ord
	}
	r.recs = append(r.recs, degradedRec{ord: ord, d: Degraded{
		Stage:    stage,
		Key:      jobKey,
		Job:      job,
		Attempts: attempts,
		Err:      err.Error(),
	}})
}

// degraded returns the accumulated records ordered by stage execution
// order, then job index. Nil when nothing degraded (so omitempty elides
// the report field).
func (r *pipelineRun) degraded() []Degraded {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.recs) == 0 {
		return nil
	}
	sort.Slice(r.recs, func(i, j int) bool {
		if r.recs[i].ord != r.recs[j].ord {
			return r.recs[i].ord < r.recs[j].ord
		}
		return r.recs[i].d.Job < r.recs[j].d.Job
	})
	out := make([]Degraded, len(r.recs))
	for i, rec := range r.recs {
		out[i] = rec.d
	}
	return out
}
