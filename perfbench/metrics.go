package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEndMetrics are what a user of the flow sees; every workload
// reports all of them, and none is ever zero. The quality-of-results
// rows are deterministic for a seed: they catch a speed-up bought with
// worse placement or routing.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_ratio", "ratio", "higher"},
	{"die_area_geomean", "nand2", "lower"},
	{"top_path_delay_ps", "ps", "lower"},
	{"wirelength_geomean", "pu", "lower"},
}

// stageCacheStages are the stage-granular build cache's stages.
var stageCacheStages = []string{"map", "compact", "place", "pack", "route"}

// layerMetrics come from the traced run, named <module>.<metric>.
// Metrics of a layer a workload does not exercise read zero.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"place.busy_s", "s", "lower"},
		{"place.anneal_s", "s", "lower"},
		{"place.refine_s", "s", "lower"},
		{"place.moves_per_s", "1/s", "higher"},
		{"place.accept_ratio", "ratio", "higher"},
		{"pack.busy_s", "s", "lower"},
		{"pack.perturbation", "pitch", "lower"},
		{"route.busy_s", "s", "lower"},
		{"route.calls", "count", "lower"},
		{"route.iterations", "count", "lower"},
		{"route.best_iter", "count", "lower"},
		{"route.overflow_total", "count", "lower"},
		{"compact.busy_s", "s", "lower"},
		{"compact.reduction_pct", "%", "higher"},
		{"techmap.busy_s", "s", "lower"},
		{"aig.busy_s", "s", "lower"},
		{"rtl.busy_s", "s", "lower"},
		{"sta.busy_s", "s", "lower"},
		{"viamap.busy_s", "s", "lower"},
		{"power.busy_s", "s", "lower"},
		{"verify.busy_s", "s", "lower"},
	}
	for _, st := range stageCacheStages {
		defs = append(defs,
			metricDef{"core.stagecache." + st + ".hits", "count", "higher"},
			metricDef{"core.stagecache." + st + ".misses", "count", "lower"})
	}
	return append(defs,
		metricDef{"core.stagecache.hit_ratio", "ratio", "higher"},
		metricDef{"server.queue_wait_s", "s", "lower"},
		metricDef{"server.job_s", "s", "lower"},
		metricDef{"server.overhead_ms", "ms", "lower"},
		metricDef{"server.cache_hit_ratio", "ratio", "higher"},
		metricDef{"server.rejected", "count", "lower"},
		metricDef{"server.journal_appends", "count", "lower"},
		metricDef{"artifact.store_hits", "count", "higher"},
		metricDef{"trace.overhead_s", "s", "lower"},
		metricDef{"trace.unattributed_s", "s", "lower"},
		metricDef{"trace.attributed_ratio", "ratio", "higher"},
	)
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics holds one metric set; newMetrics pre-fills every declared
// metric, so a set always carries all of its names with their units.
type metrics map[string]metric

func newMetrics(defs []metricDef) metrics {
	m := make(metrics, len(defs))
	for _, d := range defs {
		m[d.Name] = metric{Unit: d.Unit}
	}
	return m
}

// set records a declared metric; an undeclared name is a bug.
func (m metrics) set(name string, v float64) {
	cur, ok := m[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	cur.Value = v
	m[name] = cur
}

func (m metrics) add(name string, v float64) { m.set(name, m[name].Value+v) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile is the Harrell–Davis estimate of the q-quantile: a
// Beta((n+1)q, (n+1)(1−q))-weighted mean of all order statistics
// rather than one or two of them. Op latencies mix several modes (cache
// hits, stage-cache restores, cold flows of five designs), and a
// single order statistic in the sparse region between them jumps with
// every shifted rank; the weighted mean does not. 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est, prev float64
	for i := 1; i <= n; i++ {
		cur := regIncBeta(a, b, float64(i)/float64(n))
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// by Lentz's continued fraction (Numerical Recipes betacf).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	if x > (a+1)/(a+b+2) {
		return 1 - regIncBeta(b, a, 1-x) // the fraction converges fast only below the mean
	}
	la, _ := math.Lgamma(a + b)
	lb, _ := math.Lgamma(a)
	lc, _ := math.Lgamma(b)
	front := math.Exp(la - lb - lc + a*math.Log(x) + b*math.Log(1-x))
	const tiny = 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	f := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		for _, num := range []float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			f *= d * c
		}
		if math.Abs(d*c-1) < 1e-12 {
			break
		}
	}
	return front * f / a
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// qor collects the deterministic quality-of-results samples of a run.
type qor struct {
	dieArea, delay, wirelength []float64
}

// add records one flow result. delay is the average arrival of the
// ten most critical paths (clock − average top-10 slack): unlike the
// slack itself it is positive and cannot cross zero.
func (q *qor) add(dieArea, clock, avgTopSlack, wirelength float64) {
	q.dieArea = append(q.dieArea, dieArea)
	q.delay = append(q.delay, clock-avgTopSlack)
	q.wirelength = append(q.wirelength, wirelength)
}

// fillEndToEnd sets every end-to-end metric from a run's measurements.
func fillEndToEnd(o *outcome, setupS, wallS, peakMB float64, opMS []float64, q qor) {
	m := newMetrics(endToEndMetrics)
	m.set("setup_s", setupS)
	m.set("wall_s", wallS)
	m.set("op_p50_ms", quantile(opMS, 0.5))
	m.set("op_p90_ms", quantile(opMS, 0.9))
	m.set("peak_rss_mb", peakMB)
	m.set("ok_ratio", ratio(float64(o.attempted-o.failed), float64(o.attempted)))
	m.set("die_area_geomean", geomean(q.dieArea))
	m.set("top_path_delay_ps", geomean(q.delay))
	m.set("wirelength_geomean", geomean(q.wirelength))
	o.e2e = m
	o.note("ops timed: %d (p90 has %d samples beyond it)", len(opMS), len(opMS)/10)
}

// resetPeakRSS restarts the kernel's peak-RSS watermark, so the next
// peakRSSMB covers only the timed phase, not set-up or the untimed
// correctness pass. Where it is unsupported the peak is the process's.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set (VmHWM) since the last
// resetPeakRSS, falling back to the Go runtime's obtained memory where
// /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// setupRepeats is how often a workload's set-up runs; setup_s is the
// median, so one slow repeat (a cold page cache, a GC) does not move it.
const setupRepeats = 9

// timeSetup runs setup setupRepeats times, tearing down all but the
// last result, and returns that result with the median set-up seconds.
func timeSetup[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		t0 := now()
		v, err := setup()
		if err != nil {
			return last, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, since(t0))
		if i < setupRepeats-1 && teardown != nil {
			teardown(v)
		}
		last = v
	}
	return last, median(times), nil
}

func now() time.Time { return time.Now() }

// since is the wall time from t0 in seconds.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }
