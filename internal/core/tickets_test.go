package core

import (
	"context"
	"reflect"
	"testing"

	"vpga/internal/bench"
)

// ticketRunner runs each cell as its standalone FlowRequest — the way a
// coordinator ships cells to worker nodes. The ticket runs have no stage
// cache, so they are also the uncached oracle for the in-process
// composites, which share their prefix through one.
func ticketRunner(base FlowRequest) CellRunner {
	return func(ctx context.Context, c Cell) (*Report, error) {
		return runRequest(ctx, c.Request(base))
	}
}

// TestMatrixTicketEquivalence is the cell encoding's load-bearing
// property: running every matrix cell as its own ticket reproduces
// RunMatrix bit-identically.
func TestMatrixTicketEquivalence(t *testing.T) {
	ctx := context.Background()
	suite := bench.TestSuite()
	opts := MatrixOptions{Seed: 7, PlaceEffort: 3}
	want, err := RunMatrix(ctx, suite, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunMatrixWith(ctx, suite, opts, ticketRunner(FlowRequest{Scale: "test", Seed: 7, PlaceEffort: 3}))
	if err != nil {
		t.Fatal(err)
	}
	want.StripMetrics()
	got.StripMetrics()
	for _, d := range suite.All() {
		for arch, byFlow := range want.Reports[d.Name] {
			for flow, rep := range byFlow {
				if !reflect.DeepEqual(got.Reports[d.Name][arch][flow], rep) {
					t.Fatalf("%s/%s/%s diverged:\nticket %+v\nmatrix %+v",
						d.Name, arch, flow, got.Reports[d.Name][arch][flow], rep)
				}
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("ticketed matrix diverged from RunMatrix")
	}
}

// TestSweepTicketEquivalence: running every granularity-sweep point as
// its own ticket reproduces RunGranularitySweep bit-identically.
func TestSweepTicketEquivalence(t *testing.T) {
	ctx := context.Background()
	suite := bench.TestSuite()
	specs := DefaultSweepArchSpecs()[:3]
	opts := SweepOptions{Seed: 5}
	want, err := RunGranularitySweep(ctx, suite.ALU, DefaultSweepArchs()[:3], opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunGranularitySweepWith(ctx, suite.ALU, specs, opts, ticketRunner(FlowRequest{Design: "alu", Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ticketed sweep diverged:\nticket %+v\nmono   %+v", got, want)
	}
}

// TestDefaultSweepArchSpecsMatchFamily: the declarative spec family
// resolves to exactly the architectures DefaultSweepArchs serves.
func TestDefaultSweepArchSpecsMatchFamily(t *testing.T) {
	specs := DefaultSweepArchSpecs()
	archs := DefaultSweepArchs()
	if len(specs) != len(archs) {
		t.Fatalf("%d specs vs %d archs", len(specs), len(archs))
	}
	for i, spec := range specs {
		arch, err := spec.Resolve()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if arch.Name != archs[i].Name || arch.Area != archs[i].Area ||
			arch.SlotSummary() != archs[i].SlotSummary() {
			t.Fatalf("spec %d resolves to %s/%s, family has %s/%s",
				i, arch.Name, arch.SlotSummary(), archs[i].Name, archs[i].SlotSummary())
		}
	}
}
