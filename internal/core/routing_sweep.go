package core

import (
	"context"
	"fmt"
	"strings"

	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/route"
	"vpga/internal/sta"
)

// RoutingPoint is one sample of the routing-architecture sweep.
type RoutingPoint struct {
	Capacity    int
	Wirelength  float64
	Overflow    int
	RoutingVias int
	PeakTrack   int
	AvgTopSlack float64
}

// RoutingSweep is the deprecated positional-seed form of
// RunRoutingSweep.
//
// Deprecated: use RunRoutingSweep with SweepOptions.
func RoutingSweep(ctx context.Context, d bench.Design, arch *cells.PLBArch, capacities []int, seed int64) ([]RoutingPoint, error) {
	return RunRoutingSweep(ctx, d, arch, capacities, SweepOptions{Seed: seed})
}

// RunRoutingSweep explores the fabric's routing architecture — the
// paper's closing future work ("future work will also focus on
// exploring regular routing architectures for the VPGA fabric"): the
// design is placed and packed once, then routed under a range of
// per-channel track capacities, reporting congestion, detour cost and
// post-layout timing at each point.
//
// The capacity points are independent: route.Route and sta.Analyze
// only read the flow's packed placement (art.Prob) and implementation
// netlist (art.Impl), whose fanout index the flow's own post-layout
// STA has already built. They therefore route concurrently on at most
// opts.Parallel goroutines, each point running its own route, STA and
// track assignment. Results are indexed by capacity and the error of
// the first failing capacity wins, so output and errors are
// bit-identical at any width.
func RunRoutingSweep(ctx context.Context, d bench.Design, arch *cells.PLBArch, capacities []int, opts SweepOptions) ([]RoutingPoint, error) {
	run := opts.Trace.NewRun("routing/" + d.Name + "/" + arch.Name)
	defer run.Close()
	// One pool serves the flow run and every capacity point: the grid
	// shape never changes, so each concurrent route checks out a
	// ready-sized State and the pool holds at most opts.Parallel.
	pool := route.NewPool()
	rep, art, err := RunFlowFull(ctx, d, Config{Arch: arch, Flow: FlowB, Seed: opts.Seed,
		PlaceWorkers: opts.PlaceWorkers, Trace: run,
		Stages: opts.Stages, routePool: pool})
	if err != nil {
		return nil, err
	}
	// Only the placement and the netlist are kept: the flow's own
	// routes and pack result are garbage before the points route.
	prob, impl := art.Prob, art.Impl
	var out []RoutingPoint // nil, not empty, for a sweep without points
	if len(capacities) > 0 {
		out = make([]RoutingPoint, len(capacities))
	}
	err = fanOut(len(capacities), opts.workers(), func(i int) error {
		cap := capacities[i]
		routes, err := route.Route(prob, route.Options{Capacity: cap, Ctx: ctx, Pool: pool})
		if err != nil {
			return fmt.Errorf("routing sweep capacity %d: %w", cap, err)
		}
		post, err := sta.Analyze(impl, arch, prob, routes, sta.Options{ClockPeriod: rep.ClockPeriod})
		if err != nil {
			return err
		}
		ta := routes.AssignTracks()
		out[i] = RoutingPoint{
			Capacity:    cap,
			Wirelength:  routes.Total,
			Overflow:    routes.Overflow,
			RoutingVias: ta.RoutingVias,
			PeakTrack:   ta.PeakTrack,
			AvgTopSlack: post.AvgTopSlack,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FormatRoutingSweep renders sweep results.
func FormatRoutingSweep(design string, pts []RoutingPoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Routing-architecture sweep on %s (Sec. 4 future work):\n", design)
	fmt.Fprintf(&sb, "  %9s %12s %9s %13s %10s %11s\n",
		"tracks", "wirelength", "overflow", "routing vias", "peak trk", "avg slack")
	for _, p := range pts {
		fmt.Fprintf(&sb, "  %9d %12.0f %9d %13d %10d %11.1f\n",
			p.Capacity, p.Wirelength, p.Overflow, p.RoutingVias, p.PeakTrack, p.AvgTopSlack)
	}
	return sb.String()
}
