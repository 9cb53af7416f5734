package route

import (
	"math"
	"testing"

	"vpga/internal/obs"
)

// belowStallBar reports whether round i of an overflow trajectory
// (0-based, i ≥ 1) cut overflow by less than stallPercent percent of
// round i-1's.
func belowStallBar(overflows []int, i int) bool {
	prev, cur := float64(overflows[i-1]), float64(overflows[i])
	return prev-cur < prev*stallPercent/100
}

// TestStallEndsNegotiation: a congested placement whose overflow stops
// falling ends negotiation at the first round where stallRounds
// consecutive rounds fell below the bar, well before MaxIters, and the
// result carries the best recorded round.
func TestStallEndsNegotiation(t *testing.T) {
	prob := prepPlacement(t, src)
	const maxIters = 30
	rt := &obs.RouteTrace{}
	res, err := Route(prob, Options{Capacity: 2, MaxIters: maxIters, Trace: rt})
	if err != nil {
		t.Fatal(err)
	}
	overflows, best := rt.Snapshot()
	if res.Iterations >= maxIters {
		t.Fatalf("negotiation ran all %d rounds; trajectory %v", maxIters, overflows)
	}
	if len(overflows) != res.Iterations {
		t.Fatalf("recorded %d rounds for %d iterations", len(overflows), res.Iterations)
	}
	if overflows[len(overflows)-1] == 0 {
		t.Fatalf("placement converged (%v); the test needs a stalling one", overflows)
	}
	// The rule holds at the last round and at no earlier one.
	run := 0
	for i := 1; i < len(overflows); i++ {
		if belowStallBar(overflows, i) {
			run++
		} else {
			run = 0
		}
		if last := i == len(overflows)-1; (run >= stallRounds) != last {
			t.Fatalf("round %d: %d consecutive rounds below %d%%, last round %v; trajectory %v",
				i+1, run, stallPercent, last, overflows)
		}
	}
	minOver := overflows[0]
	for _, o := range overflows {
		minOver = min(minOver, o)
	}
	if res.Overflow != minOver || overflows[best-1] != minOver {
		t.Fatalf("result overflow %d, best round %d (%d), trajectory minimum %d",
			res.Overflow, best, overflows[best-1], minOver)
	}
}

// TestConvergingRouteUnchanged: routes that converge never meet the
// stall rule, so they end exactly where they did before it existed.
func TestConvergingRouteUnchanged(t *testing.T) {
	prob := prepPlacement(t, src)
	for _, tc := range []struct {
		opts  Options
		total float64
		iters int
	}{
		{Options{}, 201.1183020726146, 1},
		{Options{Capacity: 5}, 213.3072900770155, 2},
		{Options{Capacity: 5, MaxIters: 30}, 213.3072900770155, 2},
	} {
		res, err := Route(prob, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Total-tc.total) > 1e-9 || res.Overflow != 0 || res.Iterations != tc.iters {
			t.Errorf("capacity %d: total %v overflow %d iterations %d, want %v, 0, %d",
				tc.opts.Capacity, res.Total, res.Overflow, res.Iterations, tc.total, tc.iters)
		}
	}
}
