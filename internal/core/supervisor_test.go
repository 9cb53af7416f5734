package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/defect"
)

func smallSuite() bench.Suite {
	return bench.Suite{
		ALU:      bench.ALU(4),
		Firewire: bench.Firewire(4),
		FPU:      bench.FPU(4),
		Switch:   bench.Switch(2, 4, 2),
	}
}

// waitGoroutines waits for the goroutine count to drain back to near
// the baseline, failing the test if the pool leaked workers.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines did not drain: %d now, baseline %d", runtime.NumGoroutine(), baseline)
}

// TestRunMatrixCancellation cancels the matrix after the first
// completed run: RunMatrix must return promptly, the pool must drain
// without leaking goroutines, and the partial matrix must stay
// consistent (every populated cell matches its map keys; every
// unpopulated cell is accounted for in the ledger or never started).
func TestRunMatrixCancellation(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	done := make(chan struct{})
	var m *Matrix
	var err error
	go func() {
		defer close(done)
		m, err = RunMatrix(ctx, smallSuite(), MatrixOptions{
			Seed: 3, PlaceEffort: 1, Parallel: 2,
			Progress: func(string) { once.Do(cancel) },
		})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("RunMatrix did not return after cancellation")
	}
	if err == nil {
		t.Fatal("cancelled matrix returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if m == nil {
		t.Fatal("cancelled matrix is nil; want partial matrix")
	}
	for design, byArch := range m.Reports {
		for arch, byFlow := range byArch {
			for flow, rep := range byFlow {
				if rep == nil {
					continue
				}
				if rep.Design != design || rep.Arch != arch || rep.Flow != flow {
					t.Fatalf("cell %s/%s/%s holds report for %s/%s/%s",
						design, arch, flow, rep.Design, rep.Arch, rep.Flow)
				}
			}
		}
	}
	for _, fe := range m.Errors {
		switch fe.Stage {
		case "cancelled", "timeout", "skipped":
		default:
			t.Fatalf("unexpected ledger stage %q: %v", fe.Stage, fe)
		}
	}
	waitGoroutines(t, baseline)
}

// TestRunMatrixPanicIsolation injects a panic into one worker: the
// matrix must complete with the crash recorded as a Stage "panic"
// ledger entry and every other cell populated.
func TestRunMatrixPanicIsolation(t *testing.T) {
	testPanicHook = func(design, arch string, flow FlowKind) {
		if design == "FPU" && arch == "lut-plb" && flow == FlowB {
			panic("injected worker crash")
		}
	}
	defer func() { testPanicHook = nil }()

	m, err := RunMatrix(context.Background(), smallSuite(), MatrixOptions{
		Seed: 3, PlaceEffort: 1, Parallel: 4, ContinueOnError: true,
	})
	if err != nil {
		t.Fatalf("ContinueOnError matrix returned error: %v", err)
	}
	if len(m.Errors) != 1 {
		t.Fatalf("ledger has %d entries, want 1: %v", len(m.Errors), m.Errors)
	}
	fe := m.Errors[0]
	if fe.Stage != "panic" || fe.Design != "FPU" || fe.Arch != "lut-plb" || fe.Flow != "flow b" {
		t.Fatalf("ledger entry %+v, want FPU/lut-plb/flow b panic", fe)
	}
	if !strings.Contains(fe.Err.Error(), "injected worker crash") {
		t.Fatalf("panic cause lost: %v", fe.Err)
	}
	filled := 0
	for _, byArch := range m.Reports {
		for _, byFlow := range byArch {
			for _, rep := range byFlow {
				if rep != nil {
					filled++
				}
			}
		}
	}
	if filled != 15 {
		t.Fatalf("%d cells populated, want 15 (16 minus the crashed one)", filled)
	}
	if m.Get("FPU", "lut-plb", FlowB) != nil {
		t.Fatal("crashed cell holds a report")
	}
}

// TestRunMatrixContinueOnError: a design whose RTL does not compile
// must not abort the matrix; its four cells land in the ledger (one
// failure plus three skipped) and the other designs complete.
func TestRunMatrixContinueOnError(t *testing.T) {
	suite := smallSuite()
	suite.Firewire = bench.Design{Name: "broken", RTL: "module m(invalid"}
	m, err := RunMatrix(context.Background(), suite, MatrixOptions{
		Seed: 1, PlaceEffort: 1, Parallel: 4, ContinueOnError: true,
	})
	if err != nil {
		t.Fatalf("ContinueOnError matrix returned error: %v", err)
	}
	if len(m.Errors) != 4 {
		t.Fatalf("ledger has %d entries, want 4: %v", len(m.Errors), m.Errors)
	}
	failed, skipped := 0, 0
	for _, fe := range m.Errors {
		if fe.Design != "broken" {
			t.Fatalf("ledger names %q, want only the broken design", fe.Design)
		}
		if fe.Stage == "skipped" {
			skipped++
		} else {
			failed++
		}
	}
	if failed != 1 || skipped != 3 {
		t.Fatalf("ledger split %d failed / %d skipped, want 1/3", failed, skipped)
	}
	for _, d := range []string{"ALU", "FPU", "NetworkSwitch"} {
		if m.Get(d, "granular-plb", FlowB) == nil {
			t.Fatalf("healthy design %s missing from matrix", d)
		}
	}
}

// TestRunMatrixPerRunTimeout: an unmeetable per-run deadline must fail
// every attempted cell with Stage "timeout" without hanging the pool.
func TestRunMatrixPerRunTimeout(t *testing.T) {
	m, err := RunMatrix(context.Background(), smallSuite(), MatrixOptions{
		Seed: 1, PlaceEffort: 1, Parallel: 4, ContinueOnError: true,
		PerRunTimeout: time.Nanosecond,
	})
	if err != nil {
		t.Fatalf("ContinueOnError matrix returned error: %v", err)
	}
	if len(m.Errors) != 16 {
		t.Fatalf("ledger has %d entries, want 16", len(m.Errors))
	}
	timeouts := 0
	for _, fe := range m.Errors {
		if fe.Stage == "timeout" {
			timeouts++
		}
	}
	if timeouts < 4 {
		t.Fatalf("only %d timeout entries in %v", timeouts, m.Errors)
	}
}

// TestRunConfigPanicIsolation: a panic inside a single RunConfig call
// comes back as a *FlowError with Stage "panic", not a crash.
func TestRunConfigPanicIsolation(t *testing.T) {
	testPanicHook = func(string, string, FlowKind) { panic("injected run crash") }
	defer func() { testPanicHook = nil }()

	rep, art, err := RunConfig(context.Background(), bench.ALU(4),
		Config{Arch: cells.GranularPLB(), Flow: FlowB, Seed: 1, PlaceEffort: 1})
	var fe *FlowError
	if !errors.As(err, &fe) || fe.Stage != "panic" {
		t.Fatalf("RunConfig under a panicking hook returned %v, want Stage \"panic\"", err)
	}
	if rep != nil || art != nil {
		t.Fatal("panicked run returned a report or artifacts")
	}
	if fe.Design != "ALU" || fe.Arch != "granular-plb" || fe.Flow != "flow b" {
		t.Fatalf("panic record %+v lost the run identity", fe)
	}
	if !strings.Contains(fe.Err.Error(), "injected run crash") {
		t.Fatalf("panic cause lost: %v", fe.Err)
	}
}

// TestRepairLadder drives runFlowRepairWith with a scripted runner and
// checks the deterministic escalation schedule.
func TestRepairLadder(t *testing.T) {
	d := bench.Design{Name: "fake"}
	base := Config{Seed: 40, ClockPeriod: 1000, Flow: FlowB}

	var seen []Config
	failUntil := func(n int) func(context.Context, bench.Design, Config) (*Report, *Artifacts, error) {
		return func(_ context.Context, _ bench.Design, cfg Config) (*Report, *Artifacts, error) {
			seen = append(seen, cfg)
			if len(seen) <= n {
				return nil, nil, &FlowError{Design: d.Name, Stage: "route", Err: fmt.Errorf("congested")}
			}
			return &Report{Design: d.Name}, nil, nil
		}
	}

	// Succeeds on the third attempt (after two escalations).
	seen = nil
	rep, err := runFlowRepairWith(context.Background(), d, base, failUntil(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Escalations != 2 || len(rep.Attempts) != 3 {
		t.Fatalf("escalations %d, attempts %d; want 2 and 3", rep.Escalations, len(rep.Attempts))
	}
	wantActions := []string{"baseline", "reseed", "widen-channels"}
	for i, a := range rep.Attempts {
		if a.Action != wantActions[i] {
			t.Fatalf("attempt %d action %q, want %q", i, a.Action, wantActions[i])
		}
	}
	if seen[1].Seed != 40+1009 || seen[2].Seed != 40+2*1009 {
		t.Fatalf("escalation seeds %d, %d; want %d, %d", seen[1].Seed, seen[2].Seed, 40+1009, 40+2*1009)
	}
	if seen[2].RouteCapacityScale != 1.5 {
		t.Fatalf("widen-channels capacity scale %.2f, want 1.5", seen[2].RouteCapacityScale)
	}

	// The final rung relaxes the clock and doubles channel capacity.
	seen = nil
	rep, err = runFlowRepairWith(context.Background(), d, base, failUntil(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Escalations != 3 {
		t.Fatalf("escalations %d, want 3", rep.Escalations)
	}
	last := seen[3]
	if last.RouteCapacityScale != 2.0 || last.ClockPeriod != 1250 {
		t.Fatalf("relax-clock rung got scale %.2f clock %.0f, want 2.0 and 1250", last.RouteCapacityScale, last.ClockPeriod)
	}

	// Budget exhaustion surfaces Stage "repair" with the full history.
	seen = nil
	_, err = runFlowRepairWith(context.Background(), d, base, failUntil(99))
	var fe *FlowError
	if !errors.As(err, &fe) || fe.Stage != "repair" {
		t.Fatalf("exhausted ladder returned %v, want Stage \"repair\"", err)
	}
	if len(seen) != DefaultRepairBudget+1 {
		t.Fatalf("%d attempts, want %d", len(seen), DefaultRepairBudget+1)
	}

	// Non-repairable failures do not burn the budget.
	seen = nil
	_, err = runFlowRepairWith(context.Background(), d, base,
		func(_ context.Context, _ bench.Design, cfg Config) (*Report, *Artifacts, error) {
			seen = append(seen, cfg)
			return nil, nil, &FlowError{Design: d.Name, Stage: "rtl", Err: fmt.Errorf("parse error")}
		})
	if !errors.As(err, &fe) || fe.Stage != "rtl" {
		t.Fatalf("front-end failure returned %v, want Stage \"rtl\"", err)
	}
	if len(seen) != 1 {
		t.Fatalf("front-end failure retried %d times, want 1", len(seen))
	}
}

// TestRunFlowRepairUnroutable: a fully-dead fabric must exhaust the
// ladder and come back as a structured Stage "repair" error, never a
// crash or a hang.
func TestRunFlowRepairUnroutable(t *testing.T) {
	dm := defect.New(5, 1.0) // every site stuck, every track dead
	_, _, err := RunConfig(context.Background(), bench.ALU(4), Config{
		Arch: cells.GranularPLB(), Flow: FlowB, Seed: 1, PlaceEffort: 1,
		Defects: dm, RepairBudget: 1,
	})
	var fe *FlowError
	if !errors.As(err, &fe) {
		t.Fatalf("error %T is not a *FlowError: %v", err, err)
	}
	if fe.Stage != "repair" {
		t.Fatalf("stage %q, want \"repair\"", fe.Stage)
	}
	if fe.Attempt != 1 {
		t.Fatalf("final attempt %d, want 1 (budget 1)", fe.Attempt)
	}
}

// TestRunMatrixUnroutableDefects: a fabric where every site and track
// is dead must still produce a completed matrix — every cell accounted
// for in the ledger, no crash, no hung pool.
func TestRunMatrixUnroutableDefects(t *testing.T) {
	m, err := RunMatrix(context.Background(), smallSuite(), MatrixOptions{
		Seed: 1, PlaceEffort: 1, Parallel: 4, ContinueOnError: true,
		Defects: defect.New(9, 1.0), RepairBudget: -1,
	})
	if err != nil {
		t.Fatalf("ContinueOnError matrix returned error: %v", err)
	}
	if len(m.Errors) != 16 {
		t.Fatalf("ledger has %d entries, want all 16 cells", len(m.Errors))
	}
	repairs, skips := 0, 0
	for _, fe := range m.Errors {
		switch fe.Stage {
		case "repair":
			repairs++
		case "skipped":
			skips++
		default:
			t.Fatalf("unexpected ledger stage %q: %v", fe.Stage, fe)
		}
	}
	if repairs != 4 || skips != 12 {
		t.Fatalf("ledger split %d repair / %d skipped, want 4/12", repairs, skips)
	}
}

// TestRunMatrixDefectParallelDeterminism extends the parallel
// determinism guarantee to defective fabrics: with a fixed (defect
// seed, flow seed) pair, the matrix — including the repair ladder and
// the error ledger — must be identical at 1 worker and 4 workers.
func TestRunMatrixDefectParallelDeterminism(t *testing.T) {
	dm := defect.New(11, 0.01)
	run := func(parallel int) *Matrix {
		m, err := RunMatrix(context.Background(), smallSuite(), MatrixOptions{
			Seed: 7, PlaceEffort: 1, Parallel: parallel,
			Defects: dm, ContinueOnError: true,
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		stripRuntime(m)
		return m
	}
	seq := run(1)
	par := run(4)
	if !reflect.DeepEqual(seq.Reports, par.Reports) {
		t.Fatal("defective-fabric reports diverged between 1 and 4 workers")
	}
	if len(seq.Errors) != len(par.Errors) {
		t.Fatalf("ledger length diverged: %d vs %d", len(seq.Errors), len(par.Errors))
	}
	for i := range seq.Errors {
		a, b := seq.Errors[i], par.Errors[i]
		if a.Design != b.Design || a.Arch != b.Arch || a.Flow != b.Flow || a.Stage != b.Stage {
			t.Fatalf("ledger entry %d diverged: %v vs %v", i, a, b)
		}
	}
}

// TestDefectYieldDeterminism: the yield sweep must be reproducible and
// its table must account for every map.
func TestDefectYieldDeterminism(t *testing.T) {
	opts := YieldOptions{Rate: 0.01, Maps: 3, BaseSeed: 50, FlowSeed: 7, Parallel: 2}
	a, err := DefectYield(context.Background(), bench.ALU(4), cells.GranularPLB(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DefectYield(context.Background(), bench.ALU(4), cells.GranularPLB(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Points, b.Points) {
		t.Fatal("yield sweep diverged across identical runs")
	}
	tbl := a.Table()
	if !strings.Contains(tbl, "overall yield") || !strings.Contains(tbl, "3 maps") {
		t.Fatalf("yield table malformed:\n%s", tbl)
	}
}
