package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"crashresist"
	"crashresist/internal/service"
	"crashresist/internal/targets"
)

// Service workload shape: two closed-loop clients against a service with
// a two-token worker budget, each job a one-worker syscall run.
const (
	serviceClients = 2
	serviceBudget  = 2
)

// jobSample is the client-side record of one completed job.
type jobSample struct {
	job            time.Duration // submit to the `event: done` record
	submit, result time.Duration // POST round trip, result GET round trip
	resultBytes    int
	queueWait, run time.Duration // from the JobView timestamps
	stats          []*crashresist.RunStats
}

type serviceInstance struct {
	env      *benchEnv
	stream   []Job
	profiles []crashresist.GenServerProfile
	casDir   string
	svc      *service.Service
	srv      *httptest.Server
	client   *http.Client
	in       *layerInputs
}

func setupService(env *benchEnv, tr *Tracer, parent int) (instance, error) {
	stream, err := jobStream(env.seed)
	if err != nil {
		return nil, err
	}
	n, err := crashresist.GenServerCount(crashresist.ScaleMega)
	if err != nil {
		return nil, err
	}
	s := &serviceInstance{
		env:      env,
		stream:   stream,
		profiles: crashresist.GenServerProfiles(crashresist.DefaultGenSeed, n),
		casDir:   filepath.Join(env.scratch, fmt.Sprintf("service-cas-%d", time.Now().UnixNano())),
		client:   &http.Client{Timeout: 2 * time.Minute},
	}
	_, err = timed(tr, parent, "service.start", func() error {
		cache, err := crashresist.OpenAnalysisCache(s.casDir)
		if err != nil {
			return err
		}
		s.svc = service.New(service.Config{Budget: serviceBudget, Cache: cache})
		s.srv = httptest.NewServer(s.svc.Handler())
		return nil
	})
	if err != nil {
		s.close()
		return nil, err
	}
	// Warm the shared cache with every (target, seed) of the stream, so
	// each timed job reads its validation verdicts from it.
	var warm passOut
	_, err = timed(tr, parent, "service.warm", func() error {
		warm = s.round(context.Background(), false)
		return warm.err
	})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("cache warm-up: %w", err)
	}
	s.in = &layerInputs{pipeline: crashresist.PipelineSyscall, casDir: s.casDir}
	build, err := timed(tr, parent, "targets.build", func() error {
		s.in.servers, err = streamTargets(stream)
		return err
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.in.buildS = build.Seconds()
	s.in.serverBuild = func(i int) error {
		_, err := crashresist.Server(stream[i%len(stream)].Target)
		return err
	}
	return s, nil
}

// streamTargets builds each distinct target of the stream once, the way
// the service resolves a job's target name.
func streamTargets(stream []Job) ([]*crashresist.ServerTarget, error) {
	seen := make(map[string]bool)
	var out []*crashresist.ServerTarget
	for _, j := range stream {
		if seen[j.Target] {
			continue
		}
		seen[j.Target] = true
		srv, err := crashresist.Server(j.Target)
		if err != nil {
			return nil, err
		}
		out = append(out, srv)
	}
	return out, nil
}

func (s *serviceInstance) prepare(int) error { return nil }

// pass runs one round. Stage spans are not recorded: the service streams
// a job's stage events over SSE in bursts, so client-side timestamps do
// not bound the stages.
func (s *serviceInstance) pass(ctx context.Context, _ *stageTracer) passOut {
	return s.round(ctx, s.env.tamper)
}

// round pushes the whole stream through the clients, each submitting its
// next job only after the previous one is done and verified.
func (s *serviceInstance) round(ctx context.Context, tamper bool) passOut {
	var (
		mu   sync.Mutex
		next int
		out  = passOut{units: len(s.stream)}
		wg   sync.WaitGroup
	)
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(s.stream) {
					return
				}
				sample, err := s.runJob(ctx, s.stream[i], tamper)
				mu.Lock()
				if err != nil {
					out.failed++
					if out.err == nil {
						out.err = err
					}
				} else {
					out.jobs = append(out.jobs, sample)
					out.stats = append(out.stats, sample.stats...)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// runJob submits one job, follows its event stream to the done record,
// fetches the result and checks it against the known answer.
func (s *serviceInstance) runJob(ctx context.Context, j Job, tamper bool) (jobSample, error) {
	var sample jobSample
	spec := service.JobSpec{
		Schema: service.Schema,
		Tenant: j.Tenant,
		Request: crashresist.Request{
			Pipeline: crashresist.PipelineSyscall, Target: j.Target,
			Scale: crashresist.ScaleMega, Seed: j.Seed, Workers: 1,
		},
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return sample, err
	}
	t0 := time.Now()
	var view service.JobView
	if err := s.do(ctx, http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &view); err != nil {
		return sample, fmt.Errorf("submit %s: %w", j.Target, err)
	}
	sample.submit = time.Since(t0)

	if err := s.followEvents(ctx, view.ID); err != nil {
		return sample, fmt.Errorf("events %s: %w", view.ID, err)
	}
	sample.job = time.Since(t0)

	t1 := time.Now()
	var raw json.RawMessage
	if err := s.do(ctx, http.MethodGet, "/v1/jobs/"+view.ID, nil, http.StatusOK, &raw); err != nil {
		return sample, fmt.Errorf("result %s: %w", view.ID, err)
	}
	sample.result = time.Since(t1)
	sample.resultBytes = len(raw)
	if err := json.Unmarshal(raw, &view); err != nil {
		return sample, fmt.Errorf("decode job %s: %w", view.ID, err)
	}
	if view.State != service.StateDone {
		return sample, fmt.Errorf("job %s (%s) ended %s: %s", view.ID, j.Target, view.State, view.Error)
	}
	sample.queueWait = time.Duration(view.StartedNS - view.SubmittedNS)
	sample.run = time.Duration(view.FinishedNS - view.StartedNS)
	var res crashresist.Result
	if err := json.Unmarshal(view.Result, &res); err != nil {
		return sample, fmt.Errorf("decode result %s: %w", view.ID, err)
	}
	sample.stats = res.RunStats()
	if tamper {
		tamperResult(&res)
	}
	var prof *crashresist.GenServerProfile
	if i, ok := targets.ParseGenServerRef(j.Target); ok {
		prof = &s.profiles[i]
	}
	if err := checkServer(res.Syscall, prof); err != nil {
		return sample, err
	}
	return sample, nil
}

// followEvents reads the job's SSE stream until the done record.
func (s *serviceInstance) followEvents(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.srv.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if sc.Text() == "event: done" {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream ended without a done record")
}

func (s *serviceInstance) do(ctx context.Context, method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, s.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, out)
}

func (s *serviceInstance) layers() *layerInputs { return s.in }

func (s *serviceInstance) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	if s.svc != nil {
		s.svc.Close()
	}
	s.client.CloseIdleConnections()
	os.RemoveAll(s.casDir)
}
