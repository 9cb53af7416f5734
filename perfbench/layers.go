package main

import (
	"vpga/internal/core"
	"vpga/internal/obs"
)

// stageMetric maps a flow stage span to its layer's busy-time metric.
// "place" is absent: its first span per run is the anneal, its second
// the timing-driven refinement, and layerTimes splits them by order.
var stageMetric = map[string]string{
	"rtl":     "rtl.busy_s",
	"synth":   "aig.busy_s",
	"map":     "techmap.busy_s",
	"compact": "compact.busy_s",
	"verify":  "verify.busy_s",
	"sta":     "sta.busy_s",
	"pack":    "pack.busy_s",
	"viamap":  "viamap.busy_s",
	"route":   "route.busy_s",
	"power":   "power.busy_s",
}

// layerTimes accumulates the per-layer metrics of a traced run: stage
// self-times from the flow's spans, solver counters from its reports,
// and the times of the layer calls the benchmark makes itself.
type layerTimes struct {
	m metrics
	// busy is the summed self-time of every attributed stage; verify is
	// kept apart because it is a check the benchmark asked for, not
	// part of the untraced run it is compared against.
	busy, verify float64
	proposed     int64
	accepted     int64
	bestIters    []float64
	reductions   []float64
	perturbation []float64
}

func newLayerTimes() *layerTimes { return &layerTimes{m: newMetrics(layerMetrics)} }

// addSpans attributes one flow run's stage spans.
func (l *layerTimes) addSpans(spans []obs.Span) {
	places := 0
	for _, sp := range spans {
		d := sp.Dur.Seconds()
		name := stageMetric[sp.Stage]
		if sp.Stage == "place" {
			name = "place.anneal_s"
			if places > 0 {
				name = "place.refine_s"
			}
			places++
			l.m.add("place.busy_s", d)
		}
		if name == "" {
			continue
		}
		l.m.add(name, d)
		if sp.Stage == "route" {
			l.m.add("route.calls", 1)
		}
		if sp.Stage == "verify" {
			l.verify += d
		} else {
			l.busy += d
		}
	}
}

// addReport folds in one traced flow report's solver counters and
// per-layer quality figures.
func (l *layerTimes) addReport(rep *core.Report) {
	if s := rep.Solver; s != nil {
		l.proposed += s.AnnealProposed
		l.accepted += s.AnnealAccepted
		l.m.add("route.iterations", float64(s.RouteIterations))
		l.bestIters = append(l.bestIters, float64(s.RouteBestIteration))
	}
	for _, u := range rep.StageCache {
		if u.Hit {
			l.m.add("core.stagecache."+u.Stage+".hits", 1)
		} else {
			l.m.add("core.stagecache."+u.Stage+".misses", 1)
		}
	}
	l.m.add("route.overflow_total", float64(rep.Overflow))
	l.reductions = append(l.reductions, 100*rep.CompactionReduction)
	if rep.Flow == core.FlowB.String() {
		l.perturbation = append(l.perturbation, rep.Perturbation)
	}
}

// addCall attributes a layer call the benchmark timed itself.
func (l *layerTimes) addCall(metric string, seconds float64) {
	l.m.add(metric, seconds)
	l.busy += seconds
}

// finish derives the ratios and the attribution of the traced wall
// time against the untraced one, and returns the metric set.
func (l *layerTimes) finish(tracedWall, untracedWall float64) metrics {
	m := l.m
	m.set("place.moves_per_s", ratio(float64(l.proposed), m["place.anneal_s"].Value))
	m.set("place.accept_ratio", ratio(float64(l.accepted), float64(l.proposed)))
	m.set("route.best_iter", mean(l.bestIters))
	m.set("compact.reduction_pct", mean(l.reductions))
	m.set("pack.perturbation", mean(l.perturbation))
	setStageCacheRatio(m)
	wall := tracedWall - l.verify
	m.set("trace.overhead_s", wall-untracedWall)
	m.set("trace.unattributed_s", wall-l.busy)
	m.set("trace.attributed_ratio", ratio(l.busy, wall))
	return m
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// setStageCacheRatio derives the stage cache's overall hit ratio from
// its per-stage counters.
func setStageCacheRatio(m metrics) {
	var hits, all float64
	for _, st := range stageCacheStages {
		h, miss := m["core.stagecache."+st+".hits"].Value, m["core.stagecache."+st+".misses"].Value
		hits += h
		all += h + miss
	}
	m.set("core.stagecache.hit_ratio", ratio(hits, all))
}
