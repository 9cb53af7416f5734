package core

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"vpga/internal/bench"
	"vpga/internal/cells"
)

// TestRoutingSweepParallelEquivalence checks that routing the capacity
// points concurrently changes nothing: the points at Parallel 4 are
// deep-equal to the sequential ones, congested capacity included.
func TestRoutingSweepParallelEquivalence(t *testing.T) {
	ctx := context.Background()
	d := bench.ALU(8)
	caps := []int{4, 8, 16, 32}
	seq, err := RunRoutingSweep(ctx, d, cells.GranularPLB(), caps, SweepOptions{Seed: 3, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq[0].Overflow == 0 {
		t.Fatalf("capacity %d is not congested (%+v); the sweep does not exercise rip-up", caps[0], seq[0])
	}
	par, err := RunRoutingSweep(ctx, d, cells.GranularPLB(), caps, SweepOptions{Seed: 3, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("Parallel 4 points differ from Parallel 1:\n got %+v\nwant %+v", par, seq)
	}
}

// countingCtx is a context whose Err reports cancellation once it has
// been polled more than limit times (never when limit is negative); it
// counts every poll. The flow and the router poll Err at stage and
// iteration boundaries.
type countingCtx struct {
	context.Context
	limit int64
	polls atomic.Int64
}

func (c *countingCtx) Err() error {
	if n := c.polls.Add(1); c.limit >= 0 && n > c.limit {
		return context.Canceled
	}
	return nil
}

// TestRoutingSweepCancelledMidSweep cancels after the flow run, while
// the capacity points route, and expects an error and no partial
// slice.
func TestRoutingSweepCancelledMidSweep(t *testing.T) {
	d := bench.ALU(8)
	caps := []int{4, 8, 16, 32}
	opts := SweepOptions{Seed: 3, Parallel: 4}
	polls := func(caps []int) int64 {
		ctx := &countingCtx{Context: context.Background(), limit: -1}
		if _, err := RunRoutingSweep(ctx, d, cells.GranularPLB(), caps, opts); err != nil {
			t.Fatal(err)
		}
		return ctx.polls.Load()
	}
	flow, full := polls(nil), polls(caps)
	if full-flow < 4 {
		t.Fatalf("the capacity points poll the context %d times; too few to cancel between", full-flow)
	}
	ctx := &countingCtx{Context: context.Background(), limit: flow + (full-flow)/2}
	pts, err := RunRoutingSweep(ctx, d, cells.GranularPLB(), caps, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep: err = %v, want context.Canceled", err)
	}
	if pts != nil {
		t.Errorf("cancelled sweep returned %d points, want none", len(pts))
	}
}
