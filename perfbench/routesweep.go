package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/core"
	"vpga/internal/obs"
	"vpga/internal/route"
	"vpga/internal/rtl"
	"vpga/internal/sta"
)

// sweepSpec is the route-sweep input: a named benchmark (so core.Run
// can name the same design in a FlowRequest) and the track capacities.
type sweepSpec struct {
	design, scale string
	caps          []int
}

// routeSweepSpec is the paper-scale FPU on the granular PLB at
// congested channel widths (the flow's own default is 24 tracks with
// a derived grid; these leave tens of thousands of overflowing edges),
// so rip-up routing and packing carry most of the time.
func routeSweepSpec(toy bool) sweepSpec {
	if toy {
		return sweepSpec{"fpu", "test", []int{4, 8}}
	}
	return sweepSpec{"fpu", "paper", []int{12, 16, 20, 24}}
}

// sweepSeeds is the least number of flow seeds a run sweeps. One
// placement's congestion, and with it its pack and rip-up time, varies
// by ±10% from seed to seed; the median over several placements varies
// less.
const sweepSeeds = 2

// flowSeed is the i-th flow seed of a run with the given input seed.
func flowSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// runRouteSweep times core.RunRoutingSweep: one placed-and-packed flow
// run, then one rip-up routing and post-layout STA per capacity. An op
// is one whole sweep call, on flow seeds derived from the input seed;
// wall_s is the median sweep time.
func runRouteSweep(ctx context.Context, cfg config, traced bool) (*outcome, error) {
	o := &outcome{}
	spec := routeSweepSpec(cfg.toy)
	arch := cells.GranularPLB()
	design, setupS, err := timeSetup(func() (d bench.Design, err error) {
		if d, err = core.ResolveDesign(spec.design, spec.scale, "", ""); err != nil {
			return d, err
		}
		_, err = rtl.Compile(d.RTL)
		return d, err
	}, nil)
	if err != nil {
		return nil, err
	}
	// request is the flow RunRoutingSweep runs for a seed, with
	// verification switched on (which checks, and never changes the
	// report).
	request := func(seed int64) core.FlowRequest {
		return core.FlowRequest{
			Design: spec.design, Scale: spec.scale, Arch: core.ArchSpec{Kind: "granular"},
			Flow: "b", Seed: seed, Verify: true,
		}
	}
	sweep := func(seed int64) ([]core.RoutingPoint, float64, error) {
		t0 := now()
		pts, err := core.RunRoutingSweep(ctx, design, arch, spec.caps, core.SweepOptions{Seed: seed})
		return pts, since(t0), err
	}
	// checkSweep counts a sweep's points as ops and fails the ones that
	// differ from the reference points of the same seed.
	checkSweep := func(pass string, pts, ref []core.RoutingPoint, err error) {
		o.attempted += len(spec.caps)
		if err != nil || len(pts) != len(spec.caps) {
			o.failed += len(spec.caps)
			o.problems = append(o.problems, fmt.Sprintf("%s sweep: %d points, error %v", pass, len(pts), err))
			return
		}
		for i := range pts {
			if i < len(ref) && pts[i] != ref[i] {
				o.fail("%s sweep: capacity %d point %+v differs from the reference %+v", pass, spec.caps[i], pts[i], ref[i])
			}
		}
	}

	if traced {
		seed := flowSeed(cfg.seed, 0)
		tr := obs.NewTracer()
		run := tr.NewRun("route-sweep")
		lt := newLayerTimes()
		t0 := now()
		ref, rep, err := sweepByHand(ctx, request(seed), arch, spec.caps, run, lt)
		tracedWall := since(t0)
		run.Close()
		o.attempted++ // the verified flow run
		if err != nil {
			o.fail("traced sweep: %v", err)
			return o, nil
		}
		lt.addSpans(run.Spans())
		lt.addReport(rep)
		checkSweep("traced", ref, nil, nil)

		pts, untraced, err := sweep(seed)
		checkSweep("untraced", pts, ref, err)
		o.layer = lt.finish(tracedWall, untraced)
		o.note("traced sweep %.3fs (verify %.3fs), untraced %.3fs; stage self-times cover %.1f%%",
			tracedWall, o.layer["verify.busy_s"].Value, untraced, 100*o.layer["trace.attributed_ratio"].Value)
		return o, nil
	}

	var (
		walls  []float64
		sweeps [][]core.RoutingPoint
	)
	resetPeakRSS()
	start := now()
	for len(walls) < sweepSeeds || since(start) < cfg.seconds {
		pts, wall, err := sweep(flowSeed(cfg.seed, len(walls)))
		walls = append(walls, wall)
		sweeps = append(sweeps, pts)
		checkSweep("timed", pts, nil, err)
	}
	peakMB := peakRSSMB()

	// Untimed correctness pass, one goroutine per CPU: each seed's flow
	// verifies RTL ≡ implementation, and routing its placement at the
	// first capacity must reproduce that sweep's first point exactly.
	reps := make([]*core.Report, len(sweeps))
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		sem = make(chan struct{}, runtime.NumCPU())
	)
	for i := range sweeps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := core.Run(ctx, request(flowSeed(cfg.seed, i)), core.ExecOptions{WantArtifacts: true})
			var check core.RoutingPoint
			if err == nil {
				check, err = routePoint(ctx, res, arch, spec.caps[0], route.NewPool(), nil, nil)
			}
			mu.Lock()
			defer mu.Unlock()
			o.attempted += 2 // the verified flow run and the direct route
			switch {
			case err != nil:
				o.fail("seed %d: verified flow and direct route: %v", i, err)
			case len(sweeps[i]) > 0 && sweeps[i][0] != check:
				o.fail("seed %d: sweep point %+v differs from routing the verified flow directly %+v", i, sweeps[i][0], check)
			default:
				reps[i] = res.Report
			}
		}(i)
	}
	wg.Wait()

	var q qor
	for i, pts := range sweeps {
		for _, p := range pts {
			if reps[i] != nil {
				q.add(reps[i].DieArea, reps[i].ClockPeriod, p.AvgTopSlack, p.Wirelength)
			}
		}
	}
	opMS := make([]float64, len(walls))
	for i, w := range walls {
		opMS[i] = 1000 * w
	}
	o.note("sweeps timed: %d, one per flow seed", len(walls))
	fillEndToEnd(o, setupS, median(walls), peakMB, opMS, q)
	return o, nil
}

// sweepByHand is the traced form of RunRoutingSweep: the flow through
// core.Run with its stage spans on run, then the capacity loop's
// route.Route / AssignTracks / sta.Analyze calls made and timed here.
func sweepByHand(ctx context.Context, req core.FlowRequest, arch *cells.PLBArch, caps []int, run *obs.Run, lt *layerTimes) ([]core.RoutingPoint, *core.Report, error) {
	res, err := core.Run(ctx, req, core.ExecOptions{Trace: run, WantArtifacts: true})
	if err != nil {
		return nil, nil, fmt.Errorf("flow run: %w", err)
	}
	pool := route.NewPool()
	var pts []core.RoutingPoint
	for _, c := range caps {
		rt := &obs.RouteTrace{}
		p, err := routePoint(ctx, res, arch, c, pool, rt, lt)
		if err != nil {
			return nil, nil, fmt.Errorf("capacity %d: %w", c, err)
		}
		iters, best := rt.Snapshot()
		lt.m.add("route.calls", 1)
		lt.m.add("route.iterations", float64(len(iters)))
		lt.m.add("route.overflow_total", float64(p.Overflow))
		lt.bestIters = append(lt.bestIters, float64(best))
		pts = append(pts, p)
	}
	return pts, res.Report, nil
}

// routePoint routes a flow's placement at one capacity and times its
// post-layout STA, as one RunRoutingSweep point. With lt set, each
// layer call's time is attributed to it.
func routePoint(ctx context.Context, res *core.RunResult, arch *cells.PLBArch, capacity int, pool *route.Pool, rt *obs.RouteTrace, lt *layerTimes) (core.RoutingPoint, error) {
	timed := func(metric string, f func() error) error {
		t0 := now()
		err := f()
		if lt != nil {
			lt.addCall(metric, since(t0))
		}
		return err
	}
	art := res.Artifacts
	var (
		routes *route.Result
		ta     *route.TrackAssignment
		post   *sta.Report
	)
	err := timed("route.busy_s", func() (err error) {
		routes, err = route.Route(art.Prob, route.Options{Capacity: capacity, Ctx: ctx, Pool: pool, Trace: rt})
		if err == nil {
			ta = routes.AssignTracks()
		}
		return err
	})
	if err != nil {
		return core.RoutingPoint{}, err
	}
	err = timed("sta.busy_s", func() (err error) {
		post, err = sta.Analyze(art.Impl, arch, art.Prob, routes, sta.Options{ClockPeriod: res.Report.ClockPeriod})
		return err
	})
	if err != nil {
		return core.RoutingPoint{}, err
	}
	return core.RoutingPoint{
		Capacity: capacity, Wirelength: routes.Total, Overflow: routes.Overflow,
		RoutingVias: ta.RoutingVias, PeakTrack: ta.PeakTrack, AvgTopSlack: post.AvgTopSlack,
	}, nil
}
