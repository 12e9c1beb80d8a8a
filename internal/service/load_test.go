package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"crashresist"
)

// loadJobs is the load-harness volume: ≥1000 concurrent submissions
// across ≥4 tenants, overridable with CRASHRESIST_LOAD_JOBS for bigger
// soak runs.
func loadJobs(t *testing.T) int {
	if v := os.Getenv("CRASHRESIST_LOAD_JOBS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("CRASHRESIST_LOAD_JOBS=%q: %v", v, err)
		}
		return n
	}
	return 1000
}

// loadP99SLO is the warm-cache per-run p99 latency objective asserted
// from the Prometheus summaries. Warm small-scale syscall runs take
// ~1-2ms; the bound leaves headroom for race-instrumented CI hosts.
const loadP99SLO = 2.0 // seconds

// TestLoadHarness is the discovery-as-a-service load test: it warms the
// shared cache, fires loadJobs concurrent HTTP submissions from four
// tenants, and asserts
//
//   - every accepted job is reported terminal — zero dropped-but-
//     unreported jobs,
//   - every result matches the direct library run byte-for-byte (Stats
//     stripped),
//   - the scheduler's fairness bound held across the whole run, and
//   - the warm-cache p99 run latency, read back from the Prometheus
//     summary quantiles, meets the SLO.
func TestLoadHarness(t *testing.T) {
	jobs := loadJobs(t)
	dir := t.TempDir()
	cache, err := crashresist.OpenAnalysisCache(dir)
	if err != nil {
		t.Fatal(err)
	}

	tenants := []string{"team-a", "team-b", "team-c", "team-d"}
	targets := []string{"nginx", "cherokee", "lighttpd", "memcached"}

	// Warm the cache and capture the expected (Stats-stripped) result
	// per target with direct library runs.
	want := make(map[string][]byte, len(targets))
	for _, tgt := range targets {
		res, err := crashresist.Run(context.Background(), crashresist.Request{
			Target: tgt, Seed: 42, Cache: cache,
		})
		if err != nil {
			t.Fatalf("warm %s: %v", tgt, err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		want[tgt] = stripStats(t, raw)
	}

	s := New(Config{
		Budget:         4,
		MaxQueue:       jobs + 8,
		Retain:         jobs + 8,
		Cache:          cache,
		Registry:       crashresist.NewMetricsRegistry(),
		recordDispatch: true,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}

	// Fire all submissions concurrently from a worker pool wide enough
	// to keep the queue saturated without exhausting local ports.
	type submitted struct {
		id, tenant, target string
	}
	var (
		mu       sync.Mutex
		accepted []submitted
	)
	var wg sync.WaitGroup
	const submitters = 32
	wg.Add(submitters)
	errs := make(chan error, submitters)
	for w := 0; w < submitters; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < jobs; i += submitters {
				tn := tenants[i%len(tenants)]
				tgt := targets[(i/len(tenants))%len(targets)]
				body := fmt.Sprintf(`{"schema":"v1","tenant":%q,"target":%q,"seed":42}`, tn, tgt)
				resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- fmt.Errorf("submit %d: %w", i, err)
					return
				}
				var v JobView
				err = json.NewDecoder(resp.Body).Decode(&v)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusAccepted {
					errs <- fmt.Errorf("submit %d: status %d err %v", i, resp.StatusCode, err)
					return
				}
				mu.Lock()
				accepted = append(accepted, submitted{v.ID, tn, tgt})
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(accepted) != jobs {
		t.Fatalf("accepted %d of %d submissions", len(accepted), jobs)
	}

	// Every accepted job must reach a terminal, correct, reported state.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	perTenant := map[string]int{}
	for _, sub := range accepted {
		v, err := s.Wait(ctx, sub.id)
		if err != nil {
			t.Fatalf("job %s unreported: %v", sub.id, err)
		}
		if v.State != StateDone {
			t.Fatalf("job %s: state %s (%s)", sub.id, v.State, v.Error)
		}
		if got := stripStats(t, v.Result); !bytes.Equal(got, want[sub.target]) {
			t.Fatalf("job %s (%s): result differs from direct run", sub.id, sub.target)
		}
		perTenant[sub.tenant]++
	}
	for _, tn := range tenants {
		if perTenant[tn] != jobs/len(tenants) {
			t.Errorf("tenant %s: %d jobs done, want %d", tn, perTenant[tn], jobs/len(tenants))
		}
	}

	// The API's own accounting agrees: list per tenant, no job missing.
	for _, tn := range tenants {
		var list jobList
		resp, err := client.Get(ts.URL + "/v1/jobs?tenant=" + tn)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(list.Jobs) != jobs/len(tenants) {
			t.Errorf("tenant %s listing: %d jobs, want %d", tn, len(list.Jobs), jobs/len(tenants))
		}
	}

	// Fairness: replay the dispatch log against the strict-RR bound.
	log := s.DispatchLog()
	if len(log) != jobs {
		t.Fatalf("dispatch log has %d entries, want %d", len(log), jobs)
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
				t.Fatalf("dispatch %d: tenant %s passed over %d times (bound %d)", i, u, waits[u], maxPending)
			}
		}
		waits[d.Tenant] = 0
	}

	// SLO: read the p99 run latency for each tenant back out of the
	// Prometheus summary exposition.
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	scrape := buf.String()
	for _, tn := range tenants {
		p99 := scrapeQuantile(t, scrape, "crashresist_job_run_seconds", tn, "0.99")
		if p99 > loadP99SLO {
			t.Errorf("tenant %s: warm-cache p99 run latency %.3fs exceeds SLO %.1fs", tn, p99, loadP99SLO)
		}
		count := scrapeValue(t, scrape, fmt.Sprintf(`crashresist_job_run_seconds_count{tenant=%q}`, tn))
		if int(count) != jobs/len(tenants) {
			t.Errorf("tenant %s: summary count %v, want %d", tn, count, jobs/len(tenants))
		}
		done := scrapeValue(t, scrape, fmt.Sprintf(`crashresist_jobs_completed_total{tenant=%q}`, tn))
		if int(done) != jobs/len(tenants) {
			t.Errorf("tenant %s: completed_total %v, want %d", tn, done, jobs/len(tenants))
		}
	}
}

// scrapeQuantile extracts one summary quantile sample from a Prometheus
// text scrape.
func scrapeQuantile(t *testing.T, scrape, family, tenant, q string) float64 {
	t.Helper()
	return scrapeValue(t, scrape, fmt.Sprintf(`%s{tenant=%q,quantile=%q}`, family, tenant, q))
}

// scrapeValue finds `series value` in a Prometheus text scrape.
func scrapeValue(t *testing.T, scrape, series string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` ([0-9eE.+-]+)$`)
	m := re.FindStringSubmatch(scrape)
	if m == nil {
		t.Fatalf("scrape has no sample for %s", series)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("sample %s: %v", series, err)
	}
	return v
}
