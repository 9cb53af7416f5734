package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"vpga/internal/core"
	"vpga/internal/qor"
)

// postJSON submits body to path on ts and decodes the jobResponse.
func postJSON(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, jobResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var jr jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatalf("POST %s: decode: %v", path, err)
	}
	return resp, jr
}

// reportOf re-marshals a jobResponse's result into a core.Report.
func reportOf(t *testing.T, jr jobResponse) *core.Report {
	t.Helper()
	enc, err := json.Marshal(jr.Result)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	var rep core.Report
	if err := json.Unmarshal(enc, &rep); err != nil {
		t.Fatalf("unmarshal report: %v", err)
	}
	return &rep
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

const runBody = `{"design":"alu","arch":{"kind":"granular"},"flow":"b","seed":7}`

// TestRunCacheHit is the acceptance property: a repeated identical
// POST /v1/runs is served from the content-addressed cache with a
// report byte-identical (after StripMetrics) to the first run.
func TestRunCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})

	resp1, jr1 := postJSON(t, ts, "/v1/runs?wait=1", runBody)
	if resp1.StatusCode != http.StatusOK || jr1.Status != "done" {
		t.Fatalf("first run: status %d, job %q (err %q)", resp1.StatusCode, jr1.Status, jr1.Error)
	}
	if jr1.Cached {
		t.Fatal("first run claims cached")
	}
	resp2, jr2 := postJSON(t, ts, "/v1/runs?wait=1", runBody)
	if resp2.StatusCode != http.StatusOK || !jr2.Cached {
		t.Fatalf("second run: status %d, cached=%v", resp2.StatusCode, jr2.Cached)
	}
	if jr1.Key == "" || jr1.Key != jr2.Key {
		t.Fatalf("cache keys differ: %q vs %q", jr1.Key, jr2.Key)
	}

	fresh, cached := reportOf(t, jr1), reportOf(t, jr2)
	fresh.StripMetrics()
	cached.StripMetrics() // no-op on a correctly stripped cache entry
	b1, _ := json.Marshal(fresh)
	b2, _ := json.Marshal(cached)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cached report differs from fresh run:\nfresh:  %s\ncached: %s", b1, b2)
	}
	if s.cacheHits.Load() != 1 || s.cacheMisses.Load() != 1 {
		t.Fatalf("hit/miss counters: %d/%d", s.cacheHits.Load(), s.cacheMisses.Load())
	}
}

// TestRunFieldOrderIndependence: the same request with reordered JSON
// fields and spelled-out defaults hits the same cache entry.
func TestRunFieldOrderIndependence(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	_, jr1 := postJSON(t, ts, "/v1/runs?wait=1", runBody)
	if jr1.Status != "done" {
		t.Fatalf("first run failed: %q", jr1.Error)
	}
	reordered := `{"seed":7,"flow":"b","scale":"test","place_effort":6,"arch":{"kind":"granular"},"design":"alu"}`
	_, jr2 := postJSON(t, ts, "/v1/runs?wait=1", reordered)
	if !jr2.Cached {
		t.Fatalf("reordered request missed the cache (keys %q vs %q)", jr1.Key, jr2.Key)
	}
}

// TestQueueBackpressure: when every worker is busy and the queue is
// full, a further submission gets 429 + Retry-After instead of
// blocking.
func TestQueueBackpressure(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{
		Workers: 1, QueueDepth: 1,
		testJobStart: func(j *job) {
			started <- j.id
			<-release
		},
	})
	defer close(release)

	body := func(seed int) string {
		return fmt.Sprintf(`{"design":"alu","arch":{"kind":"granular"},"seed":%d}`, seed)
	}
	// Job 1 occupies the single worker (wait until it holds the gate).
	resp, jr := postJSON(t, ts, "/v1/runs", body(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d", resp.StatusCode)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job 1 never started")
	}
	// Job 2 fills the queue.
	if resp, _ = postJSON(t, ts, "/v1/runs", body(2)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: status %d", resp.StatusCode)
	}
	// Job 3 must bounce with explicit backpressure.
	resp, jr = postJSON(t, ts, "/v1/runs", body(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if jr.Error == "" {
		t.Fatal("429 without an error message")
	}
	if s.rejected.Load() != 1 {
		t.Fatalf("rejected counter = %d", s.rejected.Load())
	}
}

// TestStatusAndTrace: async submission, poll to completion, fetch the
// Chrome trace.
func TestStatusAndTrace(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	resp, jr := postJSON(t, ts, "/v1/runs", `{"design":"alu","arch":{"kind":"lut"},"seed":3}`)
	if resp.StatusCode != http.StatusAccepted || jr.ID == "" {
		t.Fatalf("submit: status %d id %q", resp.StatusCode, jr.ID)
	}
	deadline := time.Now().Add(60 * time.Second)
	var st jobResponse
	for {
		r2, err := http.Get(ts.URL + "/v1/runs/" + jr.ID)
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(r2.Body).Decode(&st)
		r2.Body.Close()
		if st.Status == "done" || st.Status == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", st.Status)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if st.Status != "done" {
		t.Fatalf("job failed: %s (stage %s)", st.Error, st.Stage)
	}
	tr, err := http.Get(ts.URL + "/v1/runs/" + jr.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	var events []map[string]any
	if err := json.NewDecoder(tr.Body).Decode(&events); err != nil {
		t.Fatalf("trace decode: %v", err)
	}
	stages := 0
	for _, ev := range events {
		if ev["cat"] == "stage" {
			stages++
		}
	}
	if stages == 0 {
		t.Fatalf("trace has no stage spans (%d events)", len(events))
	}
}

// TestInvalidRequests: malformed and semantically invalid submissions
// are 400s, unknown jobs 404s — on a worker and on a coordinator alike,
// since both roles validate through the one kind table.
func TestInvalidRequests(t *testing.T) {
	_, worker := newTestServer(t, Options{Workers: 1})
	_, coord := newTestCoordinator(t, CoordinatorOptions{Workers: newWorkerFleet(t, 1)})
	for _, ts := range []*httptest.Server{worker, coord} {
		for _, tc := range []struct{ path, body string }{
			{"/v1/runs", `{"design":"alu","unknown_field":1}`},
			{"/v1/runs", `{"design":"no-such-design"}`},
			{"/v1/runs", `{"design":"alu","arch":{"kind":"bogus"}}`},
			{"/v1/runs", `{"design":"alu","rtl":"also-rtl"}`},
			{"/v1/runs", `{"design":"alu","defect_rate":1.5}`},
			{"/v1/matrix", `{"scale":"huge"}`},
			{"/v1/sweeps/routing", `{"design":"alu","capacities":[0]}`},
			{"/v1/sweeps/routing", `{"design":"alu","arch":{"kind":"bogus"}}`},
			{"/v1/sweeps/granularity", `{"design":"alu","archs":[{"kind":"bogus"}]}`},
		} {
			resp, jr := postJSON(t, ts, tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s %s: status %d, want 400", ts.URL, tc.path, tc.body, resp.StatusCode)
			}
			if jr.Error == "" {
				t.Errorf("%s %s %s: 400 without error message", ts.URL, tc.path, tc.body)
			}
		}
		resp, err := http.Get(ts.URL + "/v1/runs/j999999")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s unknown job: status %d, want 404", ts.URL, resp.StatusCode)
		}
	}
}

// TestSweepEndpointsAndCache: both sweep endpoints complete and are
// served from cache on identical resubmission.
func TestSweepEndpointsAndCache(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})

	gran := `{"design":"alu","seed":5,"archs":[{"kind":"lut"},{"kind":"granular"}]}`
	_, jr := postJSON(t, ts, "/v1/sweeps/granularity?wait=1", gran)
	if jr.Status != "done" {
		t.Fatalf("granularity sweep failed: %s", jr.Error)
	}
	_, again := postJSON(t, ts, "/v1/sweeps/granularity?wait=1", gran)
	if !again.Cached {
		t.Fatal("granularity sweep resubmission missed the cache")
	}
	b1, _ := json.Marshal(jr.Result)
	b2, _ := json.Marshal(again.Result)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cached sweep differs:\nfresh:  %s\ncached: %s", b1, b2)
	}

	routing := `{"design":"alu","seed":5,"arch":{"kind":"granular"},"capacities":[4,16]}`
	_, jr = postJSON(t, ts, "/v1/sweeps/routing?wait=1", routing)
	if jr.Status != "done" {
		t.Fatalf("routing sweep failed: %s", jr.Error)
	}
	if _, again = postJSON(t, ts, "/v1/sweeps/routing?wait=1", routing); !again.Cached {
		t.Fatal("routing sweep resubmission missed the cache")
	}
}

// TestMatrixEndpointCached: a matrix over the TestSuite completes with
// tables + claims, and an identical resubmission — even at a different
// parallel width — serves the byte-identical payload from cache.
func TestMatrixEndpointCached(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	_, ts := newTestServer(t, Options{Workers: 4, LedgerPath: ledger})

	_, jr := postJSON(t, ts, "/v1/matrix?wait=1", `{"seed":1,"parallel":4}`)
	if jr.Status != "done" {
		t.Fatalf("matrix failed: %s", jr.Error)
	}
	var res MatrixResult
	enc, _ := json.Marshal(jr.Result)
	if err := json.Unmarshal(enc, &res); err != nil {
		t.Fatal(err)
	}
	if res.Table1 == "" || res.Table2 == "" || res.Claims == nil {
		t.Fatal("complete matrix missing tables or claims")
	}
	// Different parallel width, same content address.
	_, again := postJSON(t, ts, "/v1/matrix?wait=1", `{"seed":1,"parallel":1}`)
	if !again.Cached {
		t.Fatal("matrix resubmission missed the cache")
	}
	b1, _ := json.Marshal(jr.Result)
	b2, _ := json.Marshal(again.Result)
	if !bytes.Equal(b1, b2) {
		t.Fatal("cached matrix payload differs from fresh payload")
	}
	// Every matrix cell landed in the run ledger (matrix cells are not
	// request-shaped, so they carry no cache key).
	recs, err := qor.Read(ledger)
	if err != nil {
		t.Fatalf("read ledger: %v", err)
	}
	if len(recs) != 16 {
		t.Fatalf("matrix appended %d ledger records, want 16", len(recs))
	}
	for _, rec := range recs {
		if rec.Key != "" || rec.Bench == "" || rec.DelayPS <= 0 {
			t.Fatalf("matrix ledger record malformed: %+v", rec)
		}
	}
}

// TestLRUBound: the cache never exceeds its capacity and evicts the
// least recently used entry first.
func TestLRUBound(t *testing.T) {
	c := newLRU(2)
	c.put("a", 1)
	c.put("b", 2)
	c.get("a") // refresh a; b is now LRU
	c.put("c", 3)
	if c.len() != 2 {
		t.Fatalf("len %d, want 2", c.len())
	}
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a was evicted despite refresh")
	}
}

// TestGracefulShutdown: draining finishes queued work, rejects new
// submissions with 503, and Shutdown returns.
func TestGracefulShutdown(t *testing.T) {
	s, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, jr := postJSON(t, ts, "/v1/runs?wait=1", runBody)
	if jr.Status != "done" {
		t.Fatalf("run failed: %s", jr.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	// A cached request still answers during drain — no work needed.
	resp, hit := postJSON(t, ts, "/v1/runs", runBody)
	if resp.StatusCode != http.StatusOK || !hit.Cached {
		t.Fatalf("post-drain cached request: status %d cached=%v, want 200 from cache", resp.StatusCode, hit.Cached)
	}
	// New work is refused.
	resp, _ = postJSON(t, ts, "/v1/runs", `{"design":"alu","seed":404}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submission: status %d, want 503", resp.StatusCode)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d, want 503", hz.StatusCode)
	}
}

// TestJobRetention: completed job records beyond JobsKeep are evicted
// oldest-first, while their results stay cached.
func TestJobRetention(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 8, JobsKeep: 1})

	_, jr1 := postJSON(t, ts, "/v1/runs?wait=1", `{"design":"alu","seed":21}`)
	if jr1.Status != "done" {
		t.Fatalf("run 1 failed: %s", jr1.Error)
	}
	_, jr2 := postJSON(t, ts, "/v1/runs?wait=1", `{"design":"alu","seed":22}`)
	if jr2.Status != "done" {
		t.Fatalf("run 2 failed: %s", jr2.Error)
	}
	resp, _ := http.Get(ts.URL + "/v1/runs/" + jr1.ID)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job 1: status %d, want 404", resp.StatusCode)
	}
	// The result survives eviction through the content-addressed cache.
	_, hit := postJSON(t, ts, "/v1/runs?wait=1", `{"design":"alu","seed":21}`)
	if !hit.Cached {
		t.Fatal("evicted job's result fell out of the cache")
	}
	if s.cache.len() < 2 {
		t.Fatalf("cache entries %d, want >= 2", s.cache.len())
	}
}

// TestMetricsEndpoint: the Prometheus text exposition carries the
// daemon's counters.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	postJSON(t, ts, "/v1/runs?wait=1", runBody)
	postJSON(t, ts, "/v1/runs?wait=1", runBody)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		"vpgad_requests_total", "vpgad_cache_hits_total 1", "vpgad_cache_misses_total 1",
		"vpgad_jobs_completed_total 1", "vpgad_queue_capacity", "vpgad_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestRepairRunOverHTTP: a defect-injecting request runs through the
// repair ladder and reports its attempt ledger.
func TestRepairRunOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	body := `{"design":"alu","arch":{"kind":"granular"},"seed":9,"defect_rate":0.02,"defect_seed":101}`
	_, jr := postJSON(t, ts, "/v1/runs?wait=1", body)
	if jr.Status != "done" {
		t.Fatalf("repair run failed: %s (stage %s)", jr.Error, jr.Stage)
	}
	rep := reportOf(t, jr)
	if rep.DefectSummary == "" {
		t.Fatal("repair run report has no defect summary")
	}
	if len(rep.Attempts) == 0 {
		t.Fatal("repair run report has no attempt ledger")
	}
	if _, jr2 := postJSON(t, ts, "/v1/runs?wait=1", body); !jr2.Cached {
		t.Fatal("repair run resubmission missed the cache")
	}
}

// TestHealthzMetricsAgree: /healthz and /metrics render the same
// shared stats snapshot — the stable figures must agree between the
// two surfaces.
func TestHealthzMetricsAgree(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 3, QueueDepth: 5})
	if _, jr := postJSON(t, ts, "/v1/runs?wait=1", runBody); jr.Status != "done" {
		t.Fatalf("run failed: %s", jr.Error)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(hz.Body).Decode(&health)
	hz.Body.Close()
	text := metricsText(t, ts)
	for metric, key := range map[string]string{
		"vpgad_workers":        "workers",
		"vpgad_queue_capacity": "queue_capacity",
		"vpgad_queue_depth":    "queue_depth",
		"vpgad_jobs_running":   "jobs_running",
		"vpgad_cache_entries":  "cache_entries",
	} {
		got, ok := metricValue(text, metric)
		if !ok {
			t.Fatalf("metrics missing %s:\n%s", metric, text)
		}
		want, ok := health[key].(float64)
		if !ok {
			t.Fatalf("healthz missing %q: %v", key, health)
		}
		if got != want {
			t.Errorf("%s = %g but healthz %s = %g", metric, got, key, want)
		}
	}
}

// metricsText fetches /metrics.
func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String()
}

// metricValue finds a plain (unlabeled) sample in Prometheus text.
func metricValue(text, name string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// TestMetricsHistograms: after a completed job, /metrics exposes
// well-formed Prometheus histograms — a full le-ordered cumulative
// _bucket ladder ending at +Inf, with _sum and _count agreeing.
func TestMetricsHistograms(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	if _, jr := postJSON(t, ts, "/v1/runs?wait=1", runBody); jr.Status != "done" {
		t.Fatalf("run failed: %s", jr.Error)
	}
	text := metricsText(t, ts)

	for _, name := range []string{"vpgad_job_duration_seconds", "vpgad_job_queue_wait_seconds"} {
		if !strings.Contains(text, "# TYPE "+name+" histogram") {
			t.Fatalf("%s not declared as histogram:\n%s", name, text)
		}
		var buckets []float64
		inf := false
		for _, line := range strings.Split(text, "\n") {
			if !strings.HasPrefix(line, name+"_bucket{le=") {
				continue
			}
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("unparseable bucket line %q: %v", line, err)
			}
			buckets = append(buckets, v)
			if strings.Contains(line, `le="+Inf"`) {
				inf = true
			}
		}
		if len(buckets) != 21 || !inf {
			t.Fatalf("%s: %d bucket lines (inf=%v), want 21 ending at +Inf", name, len(buckets), inf)
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i] < buckets[i-1] {
				t.Fatalf("%s buckets not cumulative: %v", name, buckets)
			}
		}
		count, ok := metricValue(text, name+"_count")
		if !ok || count != 1 {
			t.Fatalf("%s_count = %g (found=%v), want 1", name, count, ok)
		}
		if buckets[len(buckets)-1] != count {
			t.Fatalf("%s +Inf bucket %g != count %g", name, buckets[len(buckets)-1], count)
		}
		if !strings.Contains(text, name+"_sum ") {
			t.Fatalf("%s_sum missing", name)
		}
	}
	// The per-stage family carries the stage label.
	for _, want := range []string{
		"# TYPE vpgad_stage_duration_seconds histogram",
		`vpgad_stage_duration_seconds_bucket{stage="place",le="+Inf"}`,
		`vpgad_stage_duration_seconds_count{stage="route"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("stage histogram missing %q:\n%s", want, text)
		}
	}
}

// TestEventsSSE: GET /v1/runs/{id}/events streams the job's telemetry
// live. The stream is attached while the job is held before producing
// any events, so every event read below arrived over the open
// connection, not from a replay of a finished job.
func TestEventsSSE(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{
		Workers: 1,
		testJobStart: func(j *job) {
			started <- struct{}{}
			<-release
		},
	})
	resp, jr := postJSON(t, ts, "/v1/runs", runBody)
	if resp.StatusCode != http.StatusAccepted || jr.ID == "" {
		t.Fatalf("submit: status %d id %q", resp.StatusCode, jr.ID)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}
	es, err := http.Get(ts.URL + "/v1/runs/" + jr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Body.Close()
	if es.StatusCode != http.StatusOK || !strings.HasPrefix(es.Header.Get("Content-Type"), "text/event-stream") {
		t.Fatalf("stream: status %d content-type %q", es.StatusCode, es.Header.Get("Content-Type"))
	}
	close(release)

	types := map[string]int{}
	var lastData string
	sc := bufio.NewScanner(es.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") {
			lastData = strings.TrimPrefix(line, "data: ")
		}
		if !strings.HasPrefix(line, "event: ") {
			continue
		}
		typ := strings.TrimPrefix(line, "event: ")
		types[typ]++
		if typ == "done" {
			// Its data line follows; read it, then stop.
			for sc.Scan() {
				if d := sc.Text(); strings.HasPrefix(d, "data: ") {
					lastData = strings.TrimPrefix(d, "data: ")
					break
				}
			}
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if types["run_start"] == 0 || types["stage_start"] == 0 || types["stage_end"] == 0 {
		t.Fatalf("stream missing stage events: %v", types)
	}
	if types["done"] != 1 || !strings.Contains(lastData, `"done"`) {
		t.Fatalf("stream did not close with terminal status: %v, last data %q", types, lastData)
	}
	// An unknown job is a 404, not an empty stream.
	nf, err := http.Get(ts.URL + "/v1/runs/j999999/events")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job events: status %d, want 404", nf.StatusCode)
	}
}

// TestJobTimeoutCounter: a job that dies on its wall-clock budget
// counts on vpgad_jobs_timeout_total as well as jobs_failed_total.
func TestJobTimeoutCounter(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, JobTimeout: time.Nanosecond})
	_, jr := postJSON(t, ts, "/v1/runs?wait=1", runBody)
	if jr.Status != "failed" {
		t.Fatalf("job with 1ns budget finished %q", jr.Status)
	}
	if s.jobs.failed.Load() != 1 || s.jobs.timeouts.Load() != 1 {
		t.Fatalf("failed/timeout counters: %d/%d, want 1/1", s.jobs.failed.Load(), s.jobs.timeouts.Load())
	}
	if v, ok := metricValue(metricsText(t, ts), "vpgad_jobs_timeout_total"); !ok || v != 1 {
		t.Fatalf("vpgad_jobs_timeout_total = %g (found=%v), want 1", v, ok)
	}
}

// TestCacheEvictionCounter: LRU capacity evictions surface on
// vpgad_cache_evictions_total.
func TestCacheEvictionCounter(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, CacheSize: 1})
	for seed := 31; seed <= 32; seed++ {
		body := fmt.Sprintf(`{"design":"alu","seed":%d}`, seed)
		if _, jr := postJSON(t, ts, "/v1/runs?wait=1", body); jr.Status != "done" {
			t.Fatalf("seed %d failed: %s", seed, jr.Error)
		}
	}
	if s.cache.evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", s.cache.evictions())
	}
	if v, ok := metricValue(metricsText(t, ts), "vpgad_cache_evictions_total"); !ok || v != 1 {
		t.Fatalf("vpgad_cache_evictions_total = %g (found=%v), want 1", v, ok)
	}
}

// TestRunLedgerAppend: with LedgerPath set, each completed run appends
// one QoR record carrying the request's cache key; cache hits do not
// append, and append failures count without failing the job.
func TestRunLedgerAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	s, ts := newTestServer(t, Options{Workers: 1, LedgerPath: path})

	_, jr := postJSON(t, ts, "/v1/runs?wait=1", runBody)
	if jr.Status != "done" {
		t.Fatalf("run failed: %s", jr.Error)
	}
	recs, err := qor.Read(path)
	if err != nil {
		t.Fatalf("read ledger: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("ledger has %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Bench != "alu" || rec.Seed != 7 || rec.Key != jr.Key {
		t.Fatalf("record identity wrong: %+v (key want %q)", rec, jr.Key)
	}
	if rec.DelayPS <= 0 || rec.Time == "" || rec.StageSeconds == nil {
		t.Fatalf("record incomplete: %+v", rec)
	}
	if s.ledgerRecords.Load() != 1 || s.ledgerErrors.Load() != 0 {
		t.Fatalf("ledger counters: %d/%d", s.ledgerRecords.Load(), s.ledgerErrors.Load())
	}
	// A cache hit runs no job, so nothing more is appended.
	if _, hit := postJSON(t, ts, "/v1/runs?wait=1", runBody); !hit.Cached {
		t.Fatal("resubmission missed the cache")
	}
	if recs, _ = qor.Read(path); len(recs) != 1 {
		t.Fatalf("cache hit appended to the ledger: %d records", len(recs))
	}

	// An unwritable ledger path counts an error and leaves the job done.
	blocked := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocked, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Options{Workers: 1,
		LedgerPath: filepath.Join(blocked, "ledger.jsonl")})
	if _, jr := postJSON(t, ts2, "/v1/runs?wait=1", runBody); jr.Status != "done" {
		t.Fatalf("run with broken ledger failed: %s", jr.Error)
	}
	if s2.ledgerErrors.Load() != 1 || s2.ledgerRecords.Load() != 0 {
		t.Fatalf("broken-ledger counters: %d errors / %d records",
			s2.ledgerErrors.Load(), s2.ledgerRecords.Load())
	}
}

// TestRetryAfterHint pins the backpressure hint rule: ceil(backlog /
// workers) rounds of the observed median job duration, clamped to
// [1s, 120s] — so a deep queue of slow jobs hints long, an empty
// queue hints the 1s floor, and no history floors at 1s too.
func TestRetryAfterHint(t *testing.T) {
	cases := []struct {
		depth, workers int
		median         float64
		want           int
	}{
		{0, 4, 10, 1},      // empty queue: floor
		{8, 4, 10, 20},     // two rounds of 10s
		{3, 2, 0.5, 1},     // sub-second jobs: floor
		{1000, 1, 60, 120}, // clamp
		{5, 0, 2, 10},      // workers floor at 1
		{4, 4, 0, 1},       // no duration history yet
	}
	for _, c := range cases {
		if got := retryAfterHint(c.depth, c.workers, c.median); got != c.want {
			t.Errorf("retryAfterHint(%d, %d, %v) = %d, want %d", c.depth, c.workers, c.median, got, c.want)
		}
	}
}

// TestRetryAfterTracksBacklog is the satellite regression: the 429
// Retry-After header scales with the actual backlog and observed job
// durations instead of a hardcoded constant — a deep queue of slow
// jobs hints strictly longer than an empty one.
func TestRetryAfterTracksBacklog(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s, ts := newTestServer(t, Options{
		Workers: 1, QueueDepth: 1,
		testJobStart: func(*job) {
			started <- struct{}{}
			<-release
		},
	})
	defer close(release)

	// The server has observed slow jobs (median ~30s).
	s.jobDur.observe(30)
	emptyHint := s.retryAfterSeconds()
	if emptyHint != 1 {
		t.Fatalf("empty-queue hint %d, want the 1s floor", emptyHint)
	}

	body := func(seed int) string {
		return fmt.Sprintf(`{"design":"alu","arch":{"kind":"granular"},"seed":%d}`, seed)
	}
	if resp, _ := postJSON(t, ts, "/v1/runs", body(1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d", resp.StatusCode)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job 1 never started")
	}
	if resp, _ := postJSON(t, ts, "/v1/runs", body(2)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: status %d", resp.StatusCode)
	}
	resp, _ := postJSON(t, ts, "/v1/runs", body(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d, want 429", resp.StatusCode)
	}
	deepHint, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	// Backlog of 2 (1 running + 1 queued) over 1 worker at a ~30s
	// median: the hint must reflect the real wait, not the old
	// hardcoded 2 seconds.
	if deepHint <= 2 || deepHint <= emptyHint {
		t.Fatalf("deep-queue hint %d does not exceed the empty-queue hint %d (or the old constant 2)",
			deepHint, emptyHint)
	}
	if deepHint > 120 {
		t.Fatalf("hint %d above the clamp", deepHint)
	}
}
