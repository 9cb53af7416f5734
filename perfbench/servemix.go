package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vpga/internal/core"
	"vpga/internal/server"
)

const (
	// mixWorkers and mixClients match the host's two CPUs: two daemon
	// workers, two closed-loop clients each waiting for its reply.
	mixWorkers = 2
	mixClients = 2
	// mixPrefix is the fixed head of the op stream every run completes;
	// wall_s is the time to complete it, so it does not depend on how
	// many more ops fit in the measured time.
	mixPrefix = 200
	// mixLag keeps a repeat from naming one of the last few requests,
	// which may still be in flight on the other client.
	mixLag = 3
	// mixStream bounds the generated stream: far more ops than two
	// clients complete in a minute at test scale.
	mixStream = 8192
)

// mixBlock is the op-kind make-up of every block of ten ops, shuffled
// per block: 4 exact repeats of an earlier request (report-cache hits),
// 3 clock retargets of an earlier cold request (stage-cache hits
// through place) and 3 cold requests. Repeats stay under half, so the
// median op is a stage-cache retarget, not the gap between two modes.
// Retargets never outnumber colds in a block, and the all-cold first
// block keeps each retarget's cold request ten colds back, long done.
var mixBlock = []string{"repeat", "repeat", "repeat", "repeat", "retarget", "retarget", "retarget", "cold", "cold", "cold"}

// mixOp is one request of the serve-mix stream.
type mixOp struct {
	Kind string // "cold", "retarget" or "repeat"
	Req  core.FlowRequest
}

// mixSequence returns the first n ops of the seeded serve-mix stream.
// The first block is all cold, to give repeats and retargets a
// history. Cold requests walk every (design, arch, flow) combination
// in a fixed order with a fresh flow seed each, and the k-th retarget
// re-clocks the k-th cold request, so every seed loads the daemon with
// the same designs in the same proportions. The seed decides the op
// order within each block, the flow seeds, the retarget clocks and
// which earlier request a repeat names.
func mixSequence(seed int64, n int, designs []string) []mixOp {
	rng := rand.New(rand.NewSource(seed))
	combos := mixCombos(designs)
	var (
		ops       []mixOp
		computed  []core.FlowRequest // every distinct request so far
		colds     []core.FlowRequest
		retargets int
		kinds     []string
	)
	for len(ops) < n {
		if len(kinds) == 0 {
			kinds = append([]string(nil), mixBlock...)
			if len(ops) == 0 {
				for i := range kinds {
					kinds[i] = "cold"
				}
			}
			rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		}
		op := mixOp{Kind: kinds[0]}
		kinds = kinds[1:]
		switch op.Kind {
		case "repeat":
			op.Req = computed[rng.Intn(len(computed)-mixLag)]
		case "retarget":
			op.Req = colds[retargets]
			op.Req.ClockPeriod = float64(400 + 20*rng.Intn(200))
			retargets++
			computed = append(computed, op.Req)
		default:
			op.Req = combos[len(colds)%len(combos)]
			op.Req.Seed = seed*1_000_003 + int64(len(colds))
			colds = append(colds, op.Req)
			computed = append(computed, op.Req)
		}
		ops = append(ops, op)
	}
	return ops
}

// mixCombos is every (design, arch, flow) cold request shape.
func mixCombos(designs []string) []core.FlowRequest {
	var out []core.FlowRequest
	for _, d := range designs {
		for _, arch := range []string{"granular", "lut"} {
			for _, flow := range []string{"a", "b"} {
				out = append(out, core.FlowRequest{Design: d, Arch: core.ArchSpec{Kind: arch}, Flow: flow})
			}
		}
	}
	return out
}

// mixDesigns are the test-scale benchmarks the requests name; each
// flow run takes 60–600 ms.
func mixDesigns(toy bool) []string {
	if toy {
		return []string{"alu", "fir"}
	}
	return []string{"alu", "firewire", "fpu", "switch", "fir"}
}

// daemon is an in-process vpgad serving over loopback HTTP.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	dir    string
	client *http.Client
}

// startDaemon builds a daemon on a fresh data directory (journal and
// artifact store on) and checks that it answers.
func startDaemon(dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Options{Workers: mixWorkers, DataDir: dir})
	if err != nil {
		return nil, fmt.Errorf("server.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	d := &daemon{
		srv: srv, hs: &http.Server{Handler: srv}, served: make(chan error, 1),
		url: "http://" + ln.Addr().String(), dir: dir,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: mixClients}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	if _, err := d.get("/healthz"); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop closes the listener, waits for in-flight handlers and the
// serve loop, drains the workers and removes the data directory.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	d.hs.Shutdown(ctx)
	<-d.served
	d.srv.Shutdown(ctx)
	d.client.CloseIdleConnections()
	os.RemoveAll(d.dir)
}

func (d *daemon) get(path string) (string, error) {
	resp, err := d.client.Get(d.url + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return string(body), err
}

// post submits one run and waits for it; the body is read whole, so
// the caller's timer covers the full round trip.
func (d *daemon) post(ctx context.Context, req core.FlowRequest) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+"/v1/runs?wait=1", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("POST /v1/runs: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	return raw, err
}

// decodeRun extracts the report of a completed run envelope.
func decodeRun(raw []byte) (*core.Report, bool, error) {
	var env struct {
		Status string          `json:"status"`
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
		Error  string          `json:"error"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, false, fmt.Errorf("decode envelope: %w", err)
	}
	if env.Status != "done" {
		return nil, false, fmt.Errorf("status %q: %s", env.Status, env.Error)
	}
	rep := &core.Report{}
	if err := json.Unmarshal(env.Result, rep); err != nil {
		return nil, false, fmt.Errorf("decode report: %w", err)
	}
	return rep, env.Cached, nil
}

// mixResult is one executed op.
type mixResult struct {
	done   bool
	rtt    float64 // seconds
	doneAt float64 // seconds since the load started
	rep    *core.Report
	cached bool
	err    error
}

// runServeMix drives the daemon with two closed-loop clients for the
// measured time (and at least through the fixed prefix). An op is one
// POST /v1/runs?wait=1; wall_s is the time to complete the prefix.
func runServeMix(ctx context.Context, cfg config, traced bool) (*outcome, error) {
	o := &outcome{}
	// Quality is taken over the first rounds of cold requests (all in
	// the prefix), so every seed weighs each design, arch and flow
	// equally.
	prefix, rounds := mixPrefix, 3
	if cfg.toy {
		prefix, rounds = 12, 1
	}
	designs := mixDesigns(cfg.toy)
	qorColds := rounds * len(mixCombos(designs))
	type state struct {
		d   *daemon
		seq []mixOp
	}
	repeat := 0
	st, setupS, err := timeSetup(func() (state, error) {
		repeat++
		d, err := startDaemon(filepath.Join(cfg.workDir, "daemon-"+strconv.Itoa(repeat)))
		return state{d, mixSequence(cfg.seed, mixStream, designs)}, err
	}, func(s state) { s.d.stop() })
	if err != nil {
		return nil, err
	}
	defer st.d.stop()

	results := make([]mixResult, len(st.seq))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	resetPeakRSS()
	start := now()
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(st.seq) || (i >= prefix && since(start) >= cfg.seconds) {
					return
				}
				t0 := now()
				raw, err := st.d.post(ctx, st.seq[i].Req)
				r := mixResult{done: true, rtt: since(t0), doneAt: since(start), err: err}
				if err == nil {
					r.rep, r.cached, r.err = decodeRun(raw)
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	loadWall := since(start)
	peakMB := peakRSSMB()

	var (
		executed []int
		opMS     []float64
		rttSum   float64
		wall     float64
		q        qor
		colds    int
	)
	for i, r := range results {
		if !r.done {
			continue
		}
		executed = append(executed, i)
		o.attempted++
		opMS = append(opMS, 1000*r.rtt)
		rttSum += r.rtt
		if r.err != nil {
			o.fail("op %d (%s): %v", i, st.seq[i].Kind, r.err)
			continue
		}
		if i < prefix {
			wall = max(wall, r.doneAt)
		}
		if st.seq[i].Kind == "cold" && colds < qorColds {
			colds++
			q.add(r.rep.DieArea, r.rep.ClockPeriod, r.rep.AvgTopSlack, r.rep.Wirelength)
		}
	}
	o.note("load %.3fs: %d ops by %d clients; prefix of %d done at %.3fs", loadWall, len(executed), mixClients, prefix, wall)
	byKind := map[string][]float64{}
	for _, i := range executed {
		byKind[st.seq[i].Kind] = append(byKind[st.seq[i].Kind], 1000*results[i].rtt)
	}
	for _, k := range []string{"repeat", "retarget", "cold"} {
		o.note("  %-8s %3d ops, p50 %8.2f ms, p90 %8.2f ms", k, len(byKind[k]), quantile(byKind[k], 0.5), quantile(byKind[k], 0.9))
	}

	if traced {
		lm, err := serveMixLayers(st.d, results, rttSum, len(executed))
		if err != nil {
			return nil, err
		}
		o.layer = lm
	}
	checkAgainstDirect(ctx, o, st.seq, results)
	if !traced {
		fillEndToEnd(o, setupS, wall, peakMB, opMS, q)
	}
	return o, nil
}

// checkAgainstDirect is the untimed correctness pass: every distinct
// request served is run directly through core.Run, with no cache and
// with verification on (which checks, and never changes the report),
// and every response to it must equal that report after StripMetrics.
func checkAgainstDirect(ctx context.Context, o *outcome, seq []mixOp, results []mixResult) {
	byKey := map[string][]int{}
	var keys []string
	for i, r := range results {
		if !r.done || r.err != nil {
			continue
		}
		k, err := seq[i].Req.CacheKey()
		if err != nil {
			o.fail("op %d: %v", i, err)
			continue
		}
		if byKey[k] == nil {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		work = make(chan string)
	)
	for w := 0; w < mixClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				ops := byKey[k]
				req := seq[ops[0]].Req
				req.Verify = true
				res, err := core.Run(ctx, req, core.ExecOptions{})
				var want string
				if err == nil {
					want = strippedJSON(res.Report)
				}
				mu.Lock()
				for _, i := range ops {
					switch {
					case err != nil:
						o.fail("op %d: direct core.Run: %v", i, err)
					case strippedJSON(results[i].rep) != want:
						o.fail("op %d (%s, cached=%v): response differs from a direct core.Run", i, seq[i].Kind, results[i].cached)
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		work <- k
	}
	close(work)
	wg.Wait()
	o.note("correctness: %d distinct requests re-run directly", len(keys))
}

// serveMixLayers reads the daemon's own counters and histograms after
// the load, plus the solver counters of the freshly computed reports.
// The daemon always traces its jobs, so there is no untraced run to
// compare with and trace.overhead_s reads zero.
func serveMixLayers(d *daemon, results []mixResult, rttSum float64, ops int) (metrics, error) {
	text, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	prom := parseProm(text)
	lt := newLayerTimes()
	for _, r := range results {
		if r.done && r.err == nil && !r.cached {
			lt.addReport(r.rep)
		}
	}
	// The job spans cover the stages; what they leave of the job time
	// is job bookkeeping (and stage restores), reported as unattributed.
	for stage, name := range stageMetric {
		lt.addCall(name, prom[`vpgad_stage_duration_seconds_sum{stage="`+stage+`"}`])
	}
	lt.addCall("place.busy_s", prom[`vpgad_stage_duration_seconds_sum{stage="place"}`])
	lt.m.set("route.calls", prom[`vpgad_stage_duration_seconds_count{stage="route"}`])
	for _, st := range stageCacheStages {
		lt.m.set("core.stagecache."+st+".hits", prom[`vpgad_stage_cache_hits_total{stage="`+st+`"}`])
		lt.m.set("core.stagecache."+st+".misses", prom[`vpgad_stage_cache_misses_total{stage="`+st+`"}`])
	}
	jobSum := prom["vpgad_job_duration_seconds_sum"]
	m := lt.finish(jobSum, jobSum)
	m.set("server.queue_wait_s", ratio(prom["vpgad_job_queue_wait_seconds_sum"], prom["vpgad_job_queue_wait_seconds_count"]))
	m.set("server.job_s", ratio(jobSum, prom["vpgad_job_duration_seconds_count"]))
	m.set("server.overhead_ms", 1000*ratio(rttSum-jobSum, float64(ops)))
	hits, misses := prom["vpgad_cache_hits_total"], prom["vpgad_cache_misses_total"]
	m.set("server.cache_hit_ratio", ratio(hits, hits+misses))
	m.set("server.rejected", prom["vpgad_jobs_rejected_total"])
	m.set("server.journal_appends", prom["vpgad_journal_appends_total"])
	m.set("artifact.store_hits", prom["vpgad_store_hits_total"])
	return m, nil
}

// parseProm reads Prometheus text exposition into series → value.
func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
