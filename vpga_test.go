package vpga

import (
	"context"
	"testing"

	"vpga/internal/logic"
)

func TestPublicAPISmoke(t *testing.T) {
	// The Section 2.1 helpers.
	if got := S3FeasibleCount(); got < 196 {
		t.Fatalf("S3FeasibleCount = %d", got)
	}
	if !ModifiedS3Complete() {
		t.Fatal("modified S3 should be complete")
	}
	if !S3Feasible(logic.TTNand3) || S3Feasible(logic.TTXor3) {
		t.Fatal("S3Feasible misclassifies")
	}
	// Architectures.
	g, l := GranularPLB(), LUTPLB()
	if g.Area <= l.Area {
		t.Fatal("granular PLB should be larger than the LUT PLB")
	}
	c := CustomPLB("x", 1, 1, 1, 0, 1)
	if c.Area <= 0 {
		t.Fatal("custom PLB degenerate")
	}
	// Compile.
	nl, err := Compile(`module m(input a, output y); assign y = ~a; endmodule`)
	if err != nil {
		t.Fatal(err)
	}
	if nl.NumNodes() == 0 {
		t.Fatal("empty netlist")
	}
}

func TestPublicAPIRunFlow(t *testing.T) {
	rep, err := Run(context.Background(), ALU(8), Config{Arch: GranularPLB(), Flow: FlowB, Seed: 3, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DieArea <= 0 || rep.Rows == 0 {
		t.Fatalf("bad report: %+v", rep)
	}
}

// Run applies the same policy as RunMatrix and Execute: a config with a
// defect map climbs the repair ladder and records its attempts, and
// RepairBudget -1 allows the baseline attempt only.
func TestPublicAPIRunDefectsRepair(t *testing.T) {
	cfg := Config{Arch: GranularPLB(), Flow: FlowB, Seed: 7, PlaceEffort: 1,
		Defects: NewDefectMap(3, 0.02)}
	rep, err := Run(context.Background(), ALU(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Attempts) == 0 || rep.DefectSummary == "" {
		t.Fatalf("defect run bypassed the repair ladder: %+v", rep)
	}

	cfg.RepairBudget = -1
	rep, err = Run(context.Background(), ALU(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Attempts) != 1 || rep.Attempts[0].Action != "baseline" {
		t.Fatalf("RepairBudget -1 gave attempts %+v, want the baseline only", rep.Attempts)
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	for _, d := range []Design{ALU(8), FPU(6), Switch(4, 8, 2), Firewire(6)} {
		if _, err := Compile(d.RTL); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
	s := TestSuite()
	if len(s.All()) != 4 {
		t.Fatal("suite size")
	}
	if PaperSuite().FPU.Name != "FPU" {
		t.Fatal("paper suite mislabeled")
	}
}

func TestPublicAPIFig2Text(t *testing.T) {
	if s := Fig2Text(); len(s) < 100 {
		t.Fatalf("Fig2Text too short: %q", s)
	}
}

func TestPublicAPIFullAdderConfig(t *testing.T) {
	g := GranularPLB()
	fa := g.Config("FA")
	if fa == nil || !g.CanPack([]*PLBConfig{fa}) {
		t.Fatal("granular PLB must host the FA macro")
	}
	if LUTPLB().CanPack([]*PLBConfig{fa}) {
		t.Fatal("LUT PLB must not host the FA macro")
	}
}
