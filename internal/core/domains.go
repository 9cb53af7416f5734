package core

import (
	"context"
	"fmt"
	"strings"

	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/route"
)

// DomainResult reports, for one application domain (benchmark design),
// how each candidate PLB architecture performs and which wins.
type DomainResult struct {
	Domain string
	Points []SweepPoint
	// Best is the architecture minimizing the area-delay product
	// (die area × post-layout critical delay).
	Best string
	// BestAreaDelay is the winning product.
	BestAreaDelay float64
}

// DomainExplore is the deprecated positional-seed form of
// RunDomainExplore.
//
// Deprecated: use RunDomainExplore with SweepOptions.
func DomainExplore(ctx context.Context, domains []bench.Design, archs []*cells.PLBArch, seed int64) ([]DomainResult, error) {
	return RunDomainExplore(ctx, domains, archs, SweepOptions{Seed: seed})
}

// RunDomainExplore runs the paper's proposed future work (Sec. 4:
// "the optimal combination of these logic elements, and the optimal
// ratio of combinational to sequential logic elements varies with the
// application domain. Accordingly, we propose to explore these issues
// in an application-domain specific manner"): each design stands for a
// domain, swept across a family of PLB architectures; the winner per
// domain is chosen by area-delay product. Within a domain the first
// architecture pins the clock period and the remaining runs fan out
// on opts.Parallel workers; results are deterministic at any width.
func RunDomainExplore(ctx context.Context, domains []bench.Design, archs []*cells.PLBArch, opts SweepOptions) ([]DomainResult, error) {
	var out []DomainResult
	pool := route.NewPool()
	for _, d := range domains {
		res := DomainResult{Domain: d.Name, Points: make([]SweepPoint, len(archs))}
		if len(archs) == 0 {
			out = append(out, res)
			continue
		}
		point := func(arch *cells.PLBArch, clock float64) (SweepPoint, float64, float64, error) {
			run := opts.Trace.NewRun("domain/" + d.Name + "/" + arch.Name)
			rep, err := RunFlow(ctx, d, Config{Arch: arch, Flow: FlowB, ClockPeriod: clock,
				Seed: opts.Seed, PlaceWorkers: opts.PlaceWorkers, Trace: run,
				Stages: opts.Stages, routePool: pool})
			run.Close()
			if err != nil {
				return SweepPoint{}, 0, 0, fmt.Errorf("domain %s on %s: %w", d.Name, arch.Name, err)
			}
			return SweepPoint{
				Arch: arch.Name, Slots: arch.SlotSummary(), PLBArea: arch.Area,
				DieArea: rep.DieArea, AvgTopSlack: rep.AvgTopSlack,
				UsedPLBs: rep.Rows * rep.Cols,
			}, rep.ClockPeriod, rep.DieArea * rep.MaxArrival, nil
		}

		// The first architecture pins the domain's clock.
		pt, clock, ad0, err := point(archs[0], 0)
		if err != nil {
			return nil, err
		}
		res.Points[0] = pt
		areaDelay := make([]float64, len(archs))
		areaDelay[0] = ad0

		// Points write disjoint entries; archs[0] already ran.
		err = fanOut(len(archs)-1, opts.workers(), func(k int) error {
			pt, _, ad, err := point(archs[k+1], clock)
			res.Points[k+1], areaDelay[k+1] = pt, ad
			return err
		})
		if err != nil {
			return nil, err
		}
		// Winner selection stays in arch order, so ties resolve
		// identically at any parallelism.
		for i, arch := range archs {
			if res.Best == "" || areaDelay[i] < res.BestAreaDelay {
				res.Best, res.BestAreaDelay = arch.Name, areaDelay[i]
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// FormatDomains renders domain-exploration results.
func FormatDomains(results []DomainResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Application-domain exploration (Sec. 4 future work): best PLB per domain\n")
	for _, r := range results {
		fmt.Fprintf(&sb, "  %-14s best: %-14s (area×delay %.3e)\n", r.Domain, r.Best, r.BestAreaDelay)
		for _, p := range r.Points {
			marker := " "
			if p.Arch == r.Best {
				marker = "*"
			}
			fmt.Fprintf(&sb, "   %s %-14s die=%9.0f  slack=%9.1f\n", marker, p.Arch, p.DieArea, p.AvgTopSlack)
		}
	}
	return sb.String()
}
