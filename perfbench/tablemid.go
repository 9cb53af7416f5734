package main

import (
	"context"
	"encoding/json"
	"fmt"

	"vpga/internal/bench"
	"vpga/internal/core"
	"vpga/internal/obs"
	"vpga/internal/rtl"
)

// tableMidSuite is the mid-scale Table 1/2 suite: large enough that
// the anneal dominates as it does at paper scale, small enough that a
// whole matrix fits in one run.
func tableMidSuite(toy bool) bench.Suite {
	if toy {
		return bench.TestSuite()
	}
	return bench.Suite{
		ALU: bench.ALU(16), Firewire: bench.Firewire(16),
		FPU: bench.FPU(16), Switch: bench.Switch(8, 16, 2),
	}
}

// tableMidMatrices is the least number of matrices a run times. A
// matrix takes about as long as the default measured time, so without
// a floor a fast host would time two and a slow one one, and the
// percentiles and peak memory would follow the count.
const tableMidMatrices = 2

// runTableMid runs the 4 designs × 2 PLBs × 2 flows matrix
// sequentially (Parallel 1, default place effort). An op is one flow
// run (one matrix cell); wall_s is the median matrix wall time.
func runTableMid(ctx context.Context, cfg config, traced bool) (*outcome, error) {
	o := &outcome{}
	suite, setupS, err := timeSetup(func() (bench.Suite, error) {
		s := tableMidSuite(cfg.toy)
		for _, d := range s.All() {
			if _, err := rtl.Compile(d.RTL); err != nil {
				return s, fmt.Errorf("compile %s: %w", d.Name, err)
			}
		}
		return s, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	opts := core.MatrixOptions{Seed: cfg.seed, Parallel: 1}
	if traced {
		o.layer = tableMidLayers(ctx, o, suite, opts)
		return o, nil
	}

	// Untimed correctness pass, which also warms the process: every
	// cell must pass RTL ≡ implementation verification, and its
	// stripped reports are the reference every timed matrix must equal.
	// Reports are identical at any parallelism, so it uses every CPU.
	vopts := opts
	vopts.Verify = true
	vopts.Parallel = 0
	ref, err := core.RunMatrix(ctx, suite, vopts)
	refCells := matrixCells(o, "verify pass", ref, err)

	var (
		walls []float64
		opMS  []float64
		q     qor
	)
	resetPeakRSS()
	start := now()
	for len(walls) < tableMidMatrices || since(start) < cfg.seconds {
		t0 := now()
		m, err := core.RunMatrix(ctx, suite, opts)
		walls = append(walls, since(t0))
		matrixCells(o, "timed", m, err)
		compareCells(o, "timed", refCells, m)
		eachCell(m, func(_ string, rep *core.Report) {
			opMS = append(opMS, float64(rep.Runtime.Microseconds())/1000)
			if len(walls) == 1 {
				q.add(rep.DieArea, rep.ClockPeriod, rep.AvgTopSlack, rep.Wirelength)
			}
		})
	}
	o.note("matrices timed: %d", len(walls))
	fillEndToEnd(o, setupS, median(walls), peakRSSMB(), opMS, q)
	return o, nil
}

// tableMidLayers is the traced run: a traced, verified matrix (which
// also warms the process, like the verify pass of the untimed run)
// followed by an untraced one, whose stripped reports must match.
func tableMidLayers(ctx context.Context, o *outcome, suite bench.Suite, opts core.MatrixOptions) metrics {
	tr := obs.NewTracer()
	topts := opts
	topts.Trace = tr
	topts.Verify = true
	t0 := now()
	m, err := core.RunMatrix(ctx, suite, topts)
	tracedWall := since(t0)
	ref := matrixCells(o, "traced", m, err)

	t0 = now()
	plain, err := core.RunMatrix(ctx, suite, opts)
	untraced := since(t0)
	matrixCells(o, "untraced", plain, err)
	compareCells(o, "untraced", ref, plain)

	lt := newLayerTimes()
	for _, r := range tr.Runs() {
		lt.addSpans(r.Spans())
	}
	eachCell(m, func(_ string, rep *core.Report) { lt.addReport(rep) })
	lm := lt.finish(tracedWall, untraced)
	o.note("traced matrix %.3fs (verify %.3fs), untraced %.3fs; stage self-times cover %.1f%%",
		tracedWall, lm["verify.busy_s"].Value, untraced, 100*lm["trace.attributed_ratio"].Value)
	return lm
}

// eachCell visits every populated cell in canonical order.
func eachCell(m *core.Matrix, f func(label string, rep *core.Report)) {
	if m == nil {
		return
	}
	for _, d := range m.Designs {
		for _, arch := range []string{"granular-plb", "lut-plb"} {
			for _, flow := range []core.FlowKind{core.FlowA, core.FlowB} {
				if rep := m.Reports[d.Name][arch][flow.String()]; rep != nil {
					f(d.Name+"/"+arch+"/"+flow.String(), rep)
				}
			}
		}
	}
}

// matrixCells counts a matrix's 16 cells as attempted ops, fails the
// ones that errored or are missing, and returns the stripped encoding
// of each populated cell.
func matrixCells(o *outcome, pass string, m *core.Matrix, err error) map[string]string {
	const cells = 16
	o.attempted += cells
	got := map[string]string{}
	eachCell(m, func(label string, rep *core.Report) {
		got[label] = strippedJSON(rep)
	})
	if missing := cells - len(got); missing > 0 {
		o.failed += missing
		o.problems = append(o.problems, fmt.Sprintf("%s: %d of %d cells missing: %v", pass, missing, cells, err))
	}
	return got
}

// compareCells fails every cell whose stripped report differs from
// the reference run of the same seed.
func compareCells(o *outcome, pass string, ref map[string]string, m *core.Matrix) {
	eachCell(m, func(label string, rep *core.Report) {
		if want, ok := ref[label]; ok && want != strippedJSON(rep) {
			o.fail("%s: %s report differs from the verified run of the same seed", pass, label)
		}
	})
}

// strippedJSON is a report's canonical encoding with every wall-clock
// and observability field zeroed.
func strippedJSON(rep *core.Report) string {
	cp := rep.Clone()
	cp.StripMetrics()
	enc, err := json.Marshal(cp)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return string(enc)
}
