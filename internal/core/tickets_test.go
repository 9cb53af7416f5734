package core

import (
	"context"
	"reflect"
	"testing"

	"vpga/internal/bench"
)

// TestMatrixTicketEquivalence is the ticket encoding's load-bearing
// property: executing a design's cells as individual FlowRequests —
// pin first, dependents pinned to the derived clock — reproduces the
// monolithic RunMatrix cells bit-identically. This is what lets a
// coordinator ship tickets to worker nodes and merge a byte-identical
// matrix. The tickets run standalone without a stage cache, so they
// are also the uncached oracle for every cell of a matrix, which
// always shares its prefix through one.
func TestMatrixTicketEquivalence(t *testing.T) {
	suite := bench.TestSuite()
	m, err := RunMatrix(context.Background(), suite, MatrixOptions{Seed: 7, PlaceEffort: 3})
	if err != nil {
		t.Fatal(err)
	}
	m.StripMetrics()

	plan := MatrixPlan{Scale: "test", Seed: 7, PlaceEffort: 3}
	for i, design := range MatrixDesignNames() {
		designName := suite.All()[i].Name
		pin, err := runRequest(context.Background(), plan.PinTicket(design))
		if err != nil {
			t.Fatalf("%s pin ticket: %v", design, err)
		}
		clock := plan.PinnedClock(pin)
		pin.Reclock(clock)
		pin.StripMetrics()
		want := m.Reports[designName][MatrixArchNames()[0]]["flow a"]
		if !reflect.DeepEqual(pin, want) {
			t.Fatalf("%s pin cell diverged from RunMatrix:\nticket %+v\nmatrix %+v", design, pin, want)
		}

		for _, cell := range plan.DependentTickets(design, clock) {
			rep, err := runRequest(context.Background(), cell.Req)
			if err != nil {
				t.Fatalf("%s cell %s/%s: %v", design, cell.ArchName, cell.Flow, err)
			}
			rep.StripMetrics()
			want := m.Reports[designName][cell.ArchName][cell.Flow]
			if !reflect.DeepEqual(rep, want) {
				t.Fatalf("%s cell %s/%s diverged from RunMatrix:\nticket %+v\nmatrix %+v",
					design, cell.ArchName, cell.Flow, rep, want)
			}
		}
	}
}

// TestSweepTicketEquivalence: a granularity sweep rebuilt from tickets
// — first arch pins the clock, later archs run pinned — matches
// RunGranularitySweep point for point.
func TestSweepTicketEquivalence(t *testing.T) {
	specs := DefaultSweepArchSpecs()[:3]
	resolved := DefaultSweepArchs()[:3]

	d := bench.TestSuite().ALU
	want, err := RunGranularitySweep(context.Background(), d, resolved, SweepOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	plan := SweepPlan{Design: "alu", Scale: "test", Seed: 5, Archs: specs}
	first, err := runRequest(context.Background(), plan.Ticket(0, 0))
	if err != nil {
		t.Fatalf("sweep pin ticket: %v", err)
	}
	clock := first.ClockPeriod
	got := make([]SweepPoint, len(specs))
	if got[0], err = SweepPointFrom(specs[0], first); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(specs); i++ {
		rep, err := runRequest(context.Background(), plan.Ticket(i, clock))
		if err != nil {
			t.Fatalf("sweep ticket %d: %v", i, err)
		}
		if got[i], err = SweepPointFrom(specs[i], rep); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ticketed sweep diverged:\nticket %+v\nmono   %+v", got, want)
	}
}

// TestMatrixPlanEnumeration pins the canonical cell order and the
// clock-pinning coordinates the merge logic depends on.
func TestMatrixPlanEnumeration(t *testing.T) {
	plan := MatrixPlan{Scale: "test", Seed: 1}
	pin := plan.PinTicket("fpu")
	if pin.Design != "fpu" || pin.Arch.Kind != "granular" || pin.Flow != "a" || pin.ClockPeriod != 0 {
		t.Fatalf("pin ticket %+v", pin)
	}
	deps := plan.DependentTickets("fpu", 1234.5)
	wantCoords := [][2]string{
		{"granular-plb", "flow b"},
		{"lut-plb", "flow a"},
		{"lut-plb", "flow b"},
	}
	if len(deps) != len(wantCoords) {
		t.Fatalf("got %d dependent cells, want %d", len(deps), len(wantCoords))
	}
	for i, cell := range deps {
		if cell.ArchName != wantCoords[i][0] || cell.Flow != wantCoords[i][1] {
			t.Fatalf("cell %d at (%s, %s), want (%s, %s)",
				i, cell.ArchName, cell.Flow, wantCoords[i][0], wantCoords[i][1])
		}
		if cell.Req.ClockPeriod != 1234.5 {
			t.Fatalf("cell %d clock %g not pinned", i, cell.Req.ClockPeriod)
		}
		if _, err := cell.Req.CacheKey(); err != nil {
			t.Fatalf("cell %d has no content address: %v", i, err)
		}
	}
	// Defect knobs propagate and normalize like MatrixRequest's.
	dp := MatrixPlan{Scale: "test", DefectRate: 0.01, DefectSeed: 3}
	if req := dp.PinTicket("alu"); req.DefectRate != 0.01 || req.RepairBudget != DefaultRepairBudget {
		t.Fatalf("defect pin ticket %+v", req)
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
