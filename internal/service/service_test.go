package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"crashresist"
)

// blockingRunner returns a Runner that signals each start on started and
// blocks until the job's context is cancelled or release is closed.
func blockingRunner(started chan<- string, release <-chan struct{}) Runner {
	return func(ctx context.Context, req crashresist.Request) (*crashresist.Result, error) {
		if started != nil {
			started <- req.Target
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return &crashresist.Result{Schema: Schema}, nil
		}
	}
}

// instantRunner completes immediately with an empty result.
func instantRunner(ctx context.Context, req crashresist.Request) (*crashresist.Result, error) {
	return &crashresist.Result{Schema: Schema}, nil
}

// spec builds a valid minimal JobSpec for tenant/target.
func spec(tenant, target string) JobSpec {
	return JobSpec{
		Tenant:  tenant,
		Request: crashresist.Request{Target: target, Seed: 42},
	}
}

// TestRoundRobinFairness drives seeded random arrivals from several
// tenants through a single-token service and asserts the strict-RR
// fairness bound: a tenant that stays pending is never passed over for
// more dispatches than the largest concurrent pending-tenant set.
func TestRoundRobinFairness(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			release := make(chan struct{})
			s := New(Config{
				Budget:         1,
				MaxQueue:       4096,
				Retain:         4096,
				Runner:         blockingRunner(nil, release),
				recordDispatch: true,
			})
			defer s.Close()

			rng := rand.New(rand.NewSource(seed))
			tenants := []string{"alice", "bob", "carol", "dave", "erin"}
			const jobs = 200
			var ids []string
			released := 0
			for i := 0; i < jobs; i++ {
				tn := tenants[rng.Intn(len(tenants))]
				v, err := s.Submit(spec(tn, "nginx"))
				if err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
				ids = append(ids, v.ID)
				// Occasionally let the scheduler drain a few jobs so
				// tenant queues empty and re-enroll mid-run.
				if rng.Intn(10) == 0 {
					release <- struct{}{}
					released++
				}
			}
			for ; released < jobs; released++ {
				release <- struct{}{}
			}
			waitAllTerminal(t, s, ids)

			log := s.DispatchLog()
			if len(log) != jobs {
				t.Fatalf("dispatched %d of %d jobs", len(log), jobs)
			}
			maxPending := 0
			for _, d := range log {
				if len(d.Pending) > maxPending {
					maxPending = len(d.Pending)
				}
			}
			waits := map[string]int{}
			for i, d := range log {
				for _, u := range d.Pending {
					if u == d.Tenant {
						continue
					}
					waits[u]++
					if waits[u] > maxPending {
						t.Fatalf("dispatch %d: tenant %s passed over %d times (pending set max %d)",
							i, u, waits[u], maxPending)
					}
				}
				waits[d.Tenant] = 0
			}
		})
	}
}

// waitAllTerminal blocks until every id is terminal.
func waitAllTerminal(t *testing.T, s *Service, ids []string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, id := range ids {
		if _, err := s.Wait(ctx, id); err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
	}
}

// TestBackpressureBound fills the queue against a blocked runner and
// asserts ErrQueueFull strikes exactly at the bound — the queue never
// holds more than MaxQueue jobs.
func TestBackpressureBound(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 1)
	s := New(Config{Budget: 1, MaxQueue: 8, Retain: 64, Runner: blockingRunner(started, release)})
	defer close(release)
	defer s.Close()

	// First job occupies the only token...
	if _, err := s.Submit(spec("t", "nginx")); err != nil {
		t.Fatal(err)
	}
	<-started
	// ...then exactly MaxQueue jobs fit in the queue.
	for i := 0; i < 8; i++ {
		if _, err := s.Submit(spec("t", "nginx")); err != nil {
			t.Fatalf("submit %d within bound: %v", i, err)
		}
		if q, _ := s.Counts(); q > 8 {
			t.Fatalf("queue grew to %d past bound 8", q)
		}
	}
	_, err := s.Submit(spec("t", "nginx"))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit past bound: got %v, want ErrQueueFull", err)
	}
	if q, _ := s.Counts(); q != 8 {
		t.Fatalf("queue holds %d after rejection, want 8", q)
	}
}

// TestCancelRunningFreesBudget cancels a running job that holds the whole
// budget and asserts the next queued job gets its tokens.
func TestCancelRunningFreesBudget(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 4)
	s := New(Config{Budget: 2, MaxQueue: 16, Retain: 16, Runner: blockingRunner(started, release)})
	defer close(release)
	defer s.Close()

	hog, err := s.Submit(JobSpec{Tenant: "t", Request: crashresist.Request{Target: "nginx", Seed: 1, Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	<-started // hog holds both tokens
	next, err := s.Submit(JobSpec{Tenant: "t", Request: crashresist.Request{Target: "cherokee", Seed: 1, Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case tgt := <-started:
		t.Fatalf("job %q started while budget was exhausted", tgt)
	case <-time.After(50 * time.Millisecond):
	}

	if _, err := s.Cancel(hog.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case tgt := <-started:
		if tgt != "cherokee" {
			t.Fatalf("started %q, want cherokee", tgt)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued job never started after cancel freed the budget")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	v, err := s.Wait(ctx, hog.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateCanceled {
		t.Fatalf("cancelled job state %s, want canceled", v.State)
	}
	_ = next
}

// TestCancelQueued cancels a job before dispatch: it finalizes as
// canceled without ever running and the queue slot frees up.
func TestCancelQueued(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 2)
	var runs sync.Map
	runner := func(ctx context.Context, req crashresist.Request) (*crashresist.Result, error) {
		runs.Store(req.Target, true)
		return blockingRunner(started, release)(ctx, req)
	}
	s := New(Config{Budget: 1, MaxQueue: 1, Retain: 16, Runner: runner})
	defer close(release)
	defer s.Close()

	if _, err := s.Submit(spec("t", "nginx")); err != nil {
		t.Fatal(err)
	}
	<-started
	queuedJob, err := s.Submit(spec("t", "cherokee"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(spec("t", "lighttpd")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue should be full, got %v", err)
	}

	v, err := s.Cancel(queuedJob.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateCanceled {
		t.Fatalf("state %s, want canceled", v.State)
	}
	if _, ok := runs.Load("cherokee"); ok {
		t.Fatal("cancelled queued job still ran")
	}
	// Its queue slot is free again.
	if _, err := s.Submit(spec("t", "memcached")); err != nil {
		t.Fatalf("slot not freed by cancel: %v", err)
	}
}

// TestWorkersClampedToBudget verifies an oversized request occupies at
// most the whole budget rather than deadlocking forever.
func TestWorkersClampedToBudget(t *testing.T) {
	s := New(Config{Budget: 2, MaxQueue: 4, Retain: 4, Runner: instantRunner})
	defer s.Close()
	v, err := s.Submit(JobSpec{Request: crashresist.Request{Target: "nginx", Seed: 1, Workers: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if v.Workers != 2 {
		t.Fatalf("effective workers %d, want clamped to budget 2", v.Workers)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if fin, err := s.Wait(ctx, v.ID); err != nil || fin.State != StateDone {
		t.Fatalf("oversized job: state %v err %v", fin.State, err)
	}
}

// TestRetentionEviction retires more jobs than Retain and asserts the
// oldest become 404 while the newest stay addressable.
func TestRetentionEviction(t *testing.T) {
	s := New(Config{Budget: 1, MaxQueue: 64, Retain: 3, Runner: instantRunner})
	defer s.Close()
	var ids []string
	for i := 0; i < 8; i++ {
		v, err := s.Submit(spec("t", "nginx"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if _, err := s.Wait(ctx, v.ID); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
	}
	for _, id := range ids[:5] {
		if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("evicted job %s still addressable (err %v)", id, err)
		}
	}
	for _, id := range ids[5:] {
		if _, err := s.Get(id); err != nil {
			t.Fatalf("retained job %s lost: %v", id, err)
		}
	}
}

// TestSubmitValidation covers the 400 paths: bad schema, unknown target,
// rejected cache_dir, pipeline/target mismatch.
func TestSubmitValidation(t *testing.T) {
	s := New(Config{Budget: 1, MaxQueue: 4, Retain: 4, Runner: instantRunner})
	defer s.Close()
	cases := []JobSpec{
		{Schema: "v0", Request: crashresist.Request{Target: "nginx"}},
		{Request: crashresist.Request{Target: "no-such-server"}},
		{Request: crashresist.Request{Target: "nginx", CacheDir: "/tmp/x"}},
		{Request: crashresist.Request{Target: "nginx", Pipeline: "seh"}},
		{Request: crashresist.Request{}},
	}
	for i, spec := range cases {
		if _, err := s.Submit(spec); !errors.Is(err, ErrBadRequest) {
			t.Errorf("case %d: got %v, want ErrBadRequest", i, err)
		}
	}
}

// TestCloseDrainsQueued closes a service with queued jobs and asserts
// they finalize as canceled rather than hanging their waiters.
func TestCloseDrainsQueued(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 1)
	s := New(Config{Budget: 1, MaxQueue: 16, Retain: 16, Runner: blockingRunner(started, release)})
	if _, err := s.Submit(spec("t", "nginx")); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit(spec("t", "cherokee"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan JobView, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		v, _ := s.Wait(ctx, queued.ID)
		done <- v
	}()
	s.Close()
	close(release)
	v := <-done
	if v.State != StateCanceled {
		t.Fatalf("queued job at close: state %s, want canceled", v.State)
	}
	if _, err := s.Submit(spec("t", "lighttpd")); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: got %v, want ErrClosed", err)
	}
}
