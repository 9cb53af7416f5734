package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/defect"
	"vpga/internal/logic"
	"vpga/internal/obs"
	"vpga/internal/route"
)

// Matrix holds the full 4-design × 2-architecture × 2-flow experiment
// of Tables 1 and 2.
type Matrix struct {
	Designs []bench.Design
	// Reports[design][arch][flow]. Cells whose run failed (or was
	// skipped because its clock-pinning run failed) stay nil; the
	// failure itself is in Errors.
	Reports map[string]map[string]map[string]*Report
	// Errors is the ledger of failed and skipped runs, sorted by
	// (design, arch, flow) so it is deterministic at any parallelism.
	Errors []*FlowError
}

// MatrixOptions configures a matrix run.
type MatrixOptions struct {
	Seed        int64
	PlaceEffort int
	// PlaceWorkers sets each run's annealer worker count (see
	// Config.PlaceWorkers); reports are bit-identical at any setting.
	PlaceWorkers int
	Verify       bool
	// Stages is the stage-granular build cache every cell runs against
	// (see Config.Stages). When nil, the matrix runs against a fresh
	// in-memory cache that lives only as long as the call: the two
	// flows of each (design, PLB) share its flow-independent prefix,
	// so the second restores the compacted netlist and the annealed
	// placement instead of recomputing them. Set it to a persistent
	// cache (the daemon's) to share artifacts across matrices too.
	// Pure acceleration: reports are bit-identical either way.
	Stages *StageCache
	// Parallel bounds the number of concurrently executing flow runs:
	// 0 uses GOMAXPROCS, 1 forces fully sequential execution. For a
	// fixed seed the resulting reports are identical at any setting —
	// every run's inputs (design, arch, flow, pinned clock, seed) are
	// independent of scheduling.
	Parallel int
	// Progress, when non-nil, receives one line per completed run.
	// Calls are serialized and delivered in canonical (design, arch,
	// flow) order at any Parallel setting, so progress output is
	// deterministic; a cell's line may therefore buffer briefly while
	// an earlier cell is still running.
	Progress func(string)
	// PerRunTimeout bounds the wall time of each flow run; an expired
	// run fails with Stage "timeout" (0 = no per-run bound).
	PerRunTimeout time.Duration
	// ContinueOnError keeps the matrix going past failing cells: the
	// failures land in Matrix.Errors and the matrix comes back
	// partially populated instead of aborting on the first error.
	ContinueOnError bool
	// Defects injects a fabric defect map into every run. Defective
	// runs go through the bounded repair ladder (see RunConfig).
	Defects *defect.Map
	// RepairBudget caps repair escalations (0 = DefaultRepairBudget).
	RepairBudget int
	// Trace, when set, records every run's stage spans and solver
	// counters; runs map onto tracer worker rows as pool slots free up,
	// so the exported Chrome trace has one row per worker. Tracing
	// never changes reports (see Report.StripMetrics).
	Trace *obs.Tracer
}

// asFlowError coerces err into a *FlowError for the ledger. It walks
// the wrap chain with errors.As — a stage error wrapped by fmt.Errorf
// keeps its real failing stage instead of degrading to "flow".
func asFlowError(d bench.Design, arch *cells.PLBArch, flow FlowKind, err error) *FlowError {
	var fe *FlowError
	if errors.As(err, &fe) {
		return fe
	}
	return &FlowError{Design: d.Name, Arch: arch.Name, Flow: flow.String(), Stage: "flow", Err: err}
}

// progressEmitter delivers Progress lines outside the pool mutex:
// every matrix cell holds a pre-assigned ticket (its canonical
// (design, arch, flow) index), a worker deposits its rendered line —
// or an empty placeholder for a failed cell — and returns to the pool
// immediately; a single emitter goroutine delivers lines one at a
// time in ticket order. Callbacks therefore stay serialized and
// arrive in the same order at any worker count, but a slow — or even
// matrix-re-entrant — callback can no longer hold the pool mutex and
// serialize or deadlock the workers.
type progressEmitter struct {
	cb   func(string)
	mu   sync.Mutex
	cond *sync.Cond
	next int            // next ticket to deliver
	buf  map[int]string // deposited lines awaiting delivery
	done bool           // no further deposits will arrive
	quit chan struct{}  // closed when the emitter goroutine drains
}

func newProgressEmitter(cb func(string)) *progressEmitter {
	e := &progressEmitter{cb: cb, buf: map[int]string{}, quit: make(chan struct{})}
	e.cond = sync.NewCond(&e.mu)
	go e.loop()
	return e
}

func (e *progressEmitter) deposit(ticket int, line string) {
	e.mu.Lock()
	e.buf[ticket] = line
	e.mu.Unlock()
	e.cond.Signal()
}

func (e *progressEmitter) loop() {
	defer close(e.quit)
	e.mu.Lock()
	for {
		if line, ok := e.buf[e.next]; ok {
			delete(e.buf, e.next)
			e.next++
			e.mu.Unlock()
			if line != "" { // failed cells deposit a placeholder
				e.cb(line) // outside the lock: the callback may block freely
			}
			e.mu.Lock()
			continue
		}
		if e.done {
			// Cells skipped by an abort never deposit; jump their gap
			// and deliver whatever remains in ticket order.
			if len(e.buf) == 0 {
				e.mu.Unlock()
				return
			}
			min := -1
			for t := range e.buf {
				if min < 0 || t < min {
					min = t
				}
			}
			e.next = min
			continue
		}
		e.cond.Wait()
	}
}

// close ends the stream and blocks until every deposited line has been
// delivered. Callers must have finished all deposits.
func (e *progressEmitter) close() {
	e.mu.Lock()
	e.done = true
	e.mu.Unlock()
	e.cond.Signal()
	<-e.quit
}

// sortLedger orders the error ledger by (design, arch, flow) so it is
// identical at any worker count.
func sortLedger(errs []*FlowError) {
	sort.Slice(errs, func(i, j int) bool {
		a, b := errs[i], errs[j]
		if a.Design != b.Design {
			return a.Design < b.Design
		}
		if a.Arch != b.Arch {
			return a.Arch < b.Arch
		}
		return a.Flow < b.Flow
	})
}

// Cell is one flow run of a composite experiment: a Table 1/2 matrix
// cell or a granularity-sweep point. RunMatrixWith and
// RunGranularitySweepWith decide which cells run, in what order and at
// which clock; a CellRunner decides how one cell runs — in process, or
// shipped elsewhere as the FlowRequest Request builds. Every cell is a
// pure function of that request, so a composite comes out the same
// whatever runs its cells.
type Cell struct {
	Design bench.Design
	Arch   *cells.PLBArch
	Flow   FlowKind
	// Clock is the pinned clock period in ps; 0 on a clock-pinning
	// cell, whose run derives its own.
	Clock float64
	// Label names the cell on traces and schedules
	// ("ALU/lut-plb/flow b", "sweep/ALU/ff-rich").
	Label string

	design string   // the request's design name ("" = the base's)
	spec   ArchSpec // Arch as a request spec
}

// CellRunner executes one cell and returns its report. It must return
// what Run returns for the cell's request: the report, or the run's
// error (a *FlowError keeps its stage in the composite's ledger).
type CellRunner func(ctx context.Context, c Cell) (*Report, error)

// RunMatrix executes every (design, arch, flow) combination in process
// under the flow supervisor: RunMatrixWith's orchestration, with each
// cell run by RunConfig against one stage cache and one router-state
// pool. Every run is bounded by opts.PerRunTimeout and traced on its
// own opts.Trace row.
func RunMatrix(ctx context.Context, suite bench.Suite, opts MatrixOptions) (*Matrix, error) {
	if opts.Stages == nil {
		opts.Stages = newMatrixStageCache()
	}
	// All cells share one router-state pool: the grids are similarly
	// shaped, so after warm-up each run checks out ready-sized scratch
	// instead of allocating it. Reuse never changes reports.
	pool := route.NewPool()
	return RunMatrixWith(ctx, suite, opts, func(ctx context.Context, c Cell) (*Report, error) {
		cfg := Config{
			Arch: c.Arch, Flow: c.Flow, ClockPeriod: c.Clock,
			Seed: opts.Seed, PlaceEffort: opts.PlaceEffort, PlaceWorkers: opts.PlaceWorkers,
			Verify: opts.Verify, Defects: opts.Defects, RepairBudget: opts.RepairBudget,
			Stages: opts.Stages, routePool: pool, Trace: opts.Trace.NewRun(c.Label),
		}
		defer cfg.Trace.Close()
		if opts.PerRunTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, opts.PerRunTimeout)
			defer cancel()
		}
		rep, _, err := RunConfig(ctx, c.Design, cfg)
		return rep, err
	})
}

// RunMatrixWith is the matrix orchestration, with each cell executed
// by run. The clock period of each design is fixed across its four
// runs — 1.2× the post-layout arrival of its granular / flow a run —
// so slack comparisons are apples to apples, mirroring the paper's
// single cycle time per table. Designs run concurrently; within a
// design the two PLBs fan out as soon as the clock-pinning run
// finishes, and each PLB runs its flows in order, so flow b restores
// the map/compact/place prefix flow a left in opts.Stages at any
// Parallel. Of opts, only Parallel, Progress, ContinueOnError and
// Stages (whose in-memory prefixes are dropped once a PLB finishes)
// steer the orchestration; the rest is for run to honor.
//
// Failures never crash or hang the pool: an error from run becomes a
// *FlowError in the returned matrix's ledger. With
// opts.ContinueOnError the remaining cells still run and the
// partially-populated matrix is returned with a nil error; otherwise a
// cell that has not started is skipped once an earlier cell (in
// canonical (design, arch, flow) order) has failed, and RunMatrixWith
// returns the partial matrix with the earliest cell's error — the
// same error at any Parallel and for any run. Cancelling ctx stops the
// matrix at the next cell boundary; run should honor it within a cell.
func RunMatrixWith(ctx context.Context, suite bench.Suite, opts MatrixOptions, run CellRunner) (*Matrix, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	par := opts.Parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	m := &Matrix{Designs: suite.All(), Reports: map[string]map[string]map[string]*Report{}}
	archs := []*cells.PLBArch{cells.GranularPLB(), cells.LUTPLB()}
	specs := []ArchSpec{{Kind: "granular"}, {Kind: "lut"}}
	flows := []FlowKind{FlowA, FlowB}

	// Report maps are pre-built sequentially so workers only write leaf
	// entries (under mu).
	for _, d := range m.Designs {
		m.Reports[d.Name] = map[string]map[string]*Report{}
		for _, arch := range archs {
			m.Reports[d.Name][arch.Name] = map[string]*Report{}
		}
	}

	var (
		sem     = make(chan struct{}, par)
		mu      sync.Mutex // guards Reports, Errors, failSeq, failErr
		failSeq int        // canonical index of failErr's cell
		failErr *FlowError // the earliest failed cell's error so far
		wg      sync.WaitGroup
		emitter *progressEmitter
	)
	if opts.Progress != nil {
		emitter = newProgressEmitter(opts.Progress)
	}
	// Every cell owns a pre-assigned sequence number — its canonical
	// index in (design, arch, flow) order. It is the cell's progress
	// ticket, so the emitter delivers lines in the same order at any
	// worker count, and it picks the returned error.
	seq := func(di, ai, fi int) int { return di*len(archs)*len(flows) + ai*len(flows) + fi }
	cell := func(di, ai, fi int, clock float64) Cell {
		d, arch := m.Designs[di], archs[ai]
		return Cell{
			Design: d, Arch: arch, Flow: flows[fi], Clock: clock,
			Label:  d.Name + "/" + arch.Name + "/" + flows[fi].String(),
			design: suiteDesigns[di], spec: specs[ai],
		}
	}
	skip := func(ticket int) {
		if emitter != nil {
			emitter.deposit(ticket, "")
		}
	}
	fail := func(ticket int, fe *FlowError) {
		mu.Lock()
		m.Errors = append(m.Errors, fe)
		if failErr == nil || ticket < failSeq {
			failSeq, failErr = ticket, fe
		}
		mu.Unlock()
		skip(ticket)
	}
	// runOne executes one cell on a pool slot; it returns nil without
	// running when an earlier cell already failed the matrix. A nil
	// return always deposits the cell's placeholder ticket.
	runOne := func(c Cell, ticket int) *Report {
		sem <- struct{}{}
		defer func() { <-sem }()
		mu.Lock()
		bail := failErr != nil && failSeq < ticket && !opts.ContinueOnError
		mu.Unlock()
		if bail {
			skip(ticket)
			return nil
		}
		if err := ctxFlowErr(ctx, c.Design, Config{Arch: c.Arch, Flow: c.Flow}); err != nil {
			fail(ticket, err)
			return nil
		}
		rep, err := run(ctx, c)
		if err != nil {
			fail(ticket, asFlowError(c.Design, c.Arch, c.Flow, err))
			return nil
		}
		return rep
	}
	store := func(c Cell, rep *Report, ticket int) {
		line := ""
		if emitter != nil {
			line = rep.summary()
		}
		mu.Lock()
		m.Reports[c.Design.Name][c.Arch.Name][c.Flow.String()] = rep
		mu.Unlock()
		// The Progress callback runs on the emitter goroutine, never
		// under mu: a slow callback cannot serialize the pool.
		if emitter != nil {
			emitter.deposit(ticket, line)
		}
	}

	for di := range m.Designs {
		wg.Add(1)
		go func(di int) {
			defer wg.Done()
			// The first run pins the design's clock period for all four
			// runs: 1.2× its post-layout arrival, so slacks hover near
			// zero like the paper's Table 2.
			pin := cell(di, 0, 0, 0)
			first := runOne(pin, seq(di, 0, 0))
			if first == nil {
				if !opts.ContinueOnError {
					// The dependents never deposit; the emitter skips
					// their tickets when it drains.
					return
				}
				// Ledger the three clock-dependent cells, so it accounts
				// for every cell that did not produce a report.
				for ai := range archs {
					for fi := range flows {
						if ai == 0 && fi == 0 {
							continue
						}
						c := cell(di, ai, fi, 0)
						fail(seq(di, ai, fi), &FlowError{Design: c.Design.Name, Arch: c.Arch.Name,
							Flow: c.Flow.String(), Stage: "skipped", Err: errors.New("clock-pinning run failed")})
					}
				}
				return
			}
			clock := 1.2 * first.MaxArrival
			first.Reclock(clock)
			store(pin, first, seq(di, 0, 0))

			// Fan out the PLBs; each runs its clock-dependent flows in
			// order, so every flow after a PLB's first restores the
			// shared prefix instead of racing it to the anneal.
			var iwg sync.WaitGroup
			for ai := range archs {
				iwg.Add(1)
				go func(ai int) {
					defer iwg.Done()
					var uses []StageUse // the PLB's chain links
					if ai == 0 {
						uses = first.StageCache
					}
					for fi := range flows {
						if ai == 0 && fi == 0 {
							continue
						}
						c := cell(di, ai, fi, clock)
						if rep := runOne(c, seq(di, ai, fi)); rep != nil {
							uses = rep.StageCache
							store(c, rep, seq(di, ai, fi))
						}
					}
					// No other cell restores this (design, PLB)'s prefix.
					opts.Stages.drop(uses)
				}(ai)
			}
			iwg.Wait()
		}(di)
	}
	wg.Wait()
	if emitter != nil {
		emitter.close()
	}
	sortLedger(m.Errors)
	if failErr != nil && !opts.ContinueOnError {
		return m, failErr
	}
	return m, nil
}

// Get returns one report.
func (m *Matrix) Get(design, arch string, flow FlowKind) *Report {
	return m.Reports[design][arch][flow.String()]
}

// StripMetrics applies Report.StripMetrics to every populated cell, so
// matrices from different worker counts or tracing settings compare
// bit-identical.
func (m *Matrix) StripMetrics() {
	for _, byArch := range m.Reports {
		for _, byFlow := range byArch {
			for _, rep := range byFlow {
				rep.StripMetrics()
			}
		}
	}
}

// StageTotals aggregates the per-stage timings of every populated cell
// across the matrix's workers (empty unless the matrix ran with
// MatrixOptions.Trace set).
func (m *Matrix) StageTotals() []obs.StageTiming {
	var lists [][]obs.StageTiming
	for _, byArch := range m.Reports {
		for _, byFlow := range byArch {
			for _, rep := range byFlow {
				if rep != nil && len(rep.Stages) > 0 {
					lists = append(lists, rep.Stages)
				}
			}
		}
	}
	return obs.Aggregate(lists...)
}

// Table1 renders the die-area comparison in the layout of the paper's
// Table 1. Cells whose route left overflow are marked (see
// overflowNote).
func (m *Matrix) Table1() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 1: Area comparison (die area, NAND2-equivalent units)\n")
	fmt.Fprintf(&sb, "%-16s %12s %12s %12s %12s\n", "", "Granular PLB", "", "LUT PLB", "")
	fmt.Fprintf(&sb, "%-16s %12s %12s %12s %12s\n", "Design", "flow a", "flow b", "flow a", "flow b")
	die := func(r *Report) string { return markOverflow(r, fmt.Sprintf("%.0f", r.DieArea)) }
	for _, d := range m.Designs {
		g := m.Reports[d.Name]["granular-plb"]
		l := m.Reports[d.Name]["lut-plb"]
		fmt.Fprintf(&sb, "%-16s %12s %12s %12s %12s\n", d.Name,
			die(g["flow a"]), die(g["flow b"]),
			die(l["flow a"]), die(l["flow b"]))
	}
	sb.WriteString(m.overflowNote())
	return sb.String()
}

// Table2 renders the timing comparison in the layout of the paper's
// Table 2 (average slack over the top-10 critical paths, ps). Slack
// cells whose route left overflow are marked (see overflowNote).
func (m *Matrix) Table2() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 2: Timing comparison (avg slack over paths 1-10, ps)\n")
	fmt.Fprintf(&sb, "%-16s %10s %12s %12s %12s %12s %10s\n",
		"Design", "gates", "gran flow a", "gran flow b", "lut flow a", "lut flow b", "clock")
	slack := func(r *Report) string { return markOverflow(r, fmt.Sprintf("%.1f", r.AvgTopSlack)) }
	for _, d := range m.Designs {
		g := m.Reports[d.Name]["granular-plb"]
		l := m.Reports[d.Name]["lut-plb"]
		fmt.Fprintf(&sb, "%-16s %10.0f %12s %12s %12s %12s %10.0f\n", d.Name,
			l["flow b"].GateCount,
			slack(g["flow a"]), slack(g["flow b"]),
			slack(l["flow a"]), slack(l["flow b"]),
			g["flow b"].ClockPeriod)
	}
	sb.WriteString(m.overflowNote())
	return sb.String()
}

// markOverflow appends "*" to a table cell whose report's route left
// capacity overflow.
func markOverflow(r *Report, cell string) string {
	if r.Overflow > 0 {
		return cell + "*"
	}
	return cell
}

// overflowNote is the footnote under Tables 1 and 2 when some cell is
// marked, and empty otherwise, so tables of legal routes are unchanged.
func (m *Matrix) overflowNote() string {
	for _, byArch := range m.Reports {
		for _, byFlow := range byArch {
			for _, rep := range byFlow {
				if rep != nil && rep.Overflow > 0 {
					return "* routed with capacity overflow left: an illegal routing\n"
				}
			}
		}
	}
	return ""
}

// Claims holds the derived Section 3.2 statistics.
type Claims struct {
	// AvgDatapathDieReduction: average die-area reduction of flow b on
	// the three datapath designs, granular vs LUT (paper: ~32%).
	AvgDatapathDieReduction float64
	// MaxDatapathDieReduction and the design achieving it (paper: FPU,
	// ~40%).
	MaxDatapathDieReduction float64
	MaxDieReductionDesign   string
	// AvgPackingOverheadReduction: how much smaller the flow a→b area
	// overhead is with the granular PLB (paper: 48.37% average).
	AvgPackingOverheadReduction float64
	MaxPackingOverheadReduction float64
	MaxPackingOverheadDesign    string
	// AvgSlackImprovement on flow b, granular vs LUT, over all designs
	// (paper: ~18% average, FPU ~40%).
	AvgSlackImprovement float64
	MaxSlackImprovement float64
	MaxSlackDesign      string
	// AvgPerfDegradationReduction: how much less slack is lost going
	// from flow a to flow b with the granular PLB (paper: ~68%).
	AvgPerfDegradationReduction float64
	// FirewireAreaRatio is granular/LUT die area on the
	// sequential-dominated design (paper: > 1, a regression).
	FirewireAreaRatio float64
}

// DeriveClaims computes the Section 3.2 statistics from a matrix.
func (m *Matrix) DeriveClaims() Claims {
	var c Claims
	nDatapath := 0
	nOverhead := 0
	nSlack := 0
	nDeg := 0
	for _, d := range m.Designs {
		g := m.Reports[d.Name]["granular-plb"]
		l := m.Reports[d.Name]["lut-plb"]
		gb, ga := g["flow b"], g["flow a"]
		lb, la := l["flow b"], l["flow a"]

		if d.Datapath {
			red := 1 - gb.DieArea/lb.DieArea
			c.AvgDatapathDieReduction += red
			nDatapath++
			if red > c.MaxDatapathDieReduction {
				c.MaxDatapathDieReduction = red
				c.MaxDieReductionDesign = d.Name
			}
		} else {
			c.FirewireAreaRatio = gb.DieArea / lb.DieArea
		}

		// Packing overhead: flow b area over flow a area, per arch. The
		// relative-reduction metric is ill-conditioned when the baseline
		// overhead is near zero, so only designs where the LUT flow pays
		// a material overhead participate.
		ovG := gb.DieArea/ga.DieArea - 1
		ovL := lb.DieArea/la.DieArea - 1
		if ovL > 0.15 && d.Datapath {
			red := 1 - ovG/ovL
			c.AvgPackingOverheadReduction += red
			nOverhead++
			if red > c.MaxPackingOverheadReduction {
				c.MaxPackingOverheadReduction = red
				c.MaxPackingOverheadDesign = d.Name
			}
		}

		// Slack improvement on the full flow, normalized by the design's
		// clock period so negative baselines stay interpretable.
		if gb.ClockPeriod > 0 {
			impr := (gb.AvgTopSlack - lb.AvgTopSlack) / gb.ClockPeriod
			c.AvgSlackImprovement += impr
			nSlack++
			if impr > c.MaxSlackImprovement {
				c.MaxSlackImprovement = impr
				c.MaxSlackDesign = d.Name
			}
		}

		// Performance degradation from flow a to flow b.
		degG := ga.AvgTopSlack - gb.AvgTopSlack
		degL := la.AvgTopSlack - lb.AvgTopSlack
		if degL > 0.5 {
			c.AvgPerfDegradationReduction += 1 - degG/degL
			nDeg++
		}
	}
	if nDatapath > 0 {
		c.AvgDatapathDieReduction /= float64(nDatapath)
	}
	if nOverhead > 0 {
		c.AvgPackingOverheadReduction /= float64(nOverhead)
	}
	if nSlack > 0 {
		c.AvgSlackImprovement /= float64(nSlack)
	}
	if nDeg > 0 {
		c.AvgPerfDegradationReduction /= float64(nDeg)
	}
	return c
}

// String renders the claims against the paper's numbers.
func (c Claims) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Derived Section 3.2 claims (measured vs paper):\n")
	fmt.Fprintf(&sb, "  datapath die-area reduction (avg): %6.1f%%   (paper ~32%%)\n", 100*c.AvgDatapathDieReduction)
	fmt.Fprintf(&sb, "  datapath die-area reduction (max): %6.1f%%   on %s (paper: FPU ~40%%)\n", 100*c.MaxDatapathDieReduction, c.MaxDieReductionDesign)
	fmt.Fprintf(&sb, "  packing-overhead reduction (avg):  %6.1f%%   (paper 48.37%%)\n", 100*c.AvgPackingOverheadReduction)
	fmt.Fprintf(&sb, "  packing-overhead reduction (max):  %6.1f%%   on %s (paper: Network Switch 88.6%%)\n", 100*c.MaxPackingOverheadReduction, c.MaxPackingOverheadDesign)
	fmt.Fprintf(&sb, "  slack improvement (avg):           %6.1f%%   of the clock period (paper ~18%% of slack)\n", 100*c.AvgSlackImprovement)
	fmt.Fprintf(&sb, "  slack improvement (max):           %6.1f%%   on %s (paper: FPU ~40%%)\n", 100*c.MaxSlackImprovement, c.MaxSlackDesign)
	fmt.Fprintf(&sb, "  perf-degradation reduction (avg):  %6.1f%%   (paper ~68%%)\n", 100*c.AvgPerfDegradationReduction)
	fmt.Fprintf(&sb, "  Firewire die-area ratio gran/LUT:  %6.2f    (paper > 1: granular loses)\n", c.FirewireAreaRatio)
	return sb.String()
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Fig2Text renders the Figure 2 / Section 2.1 function analysis.
func Fig2Text() string {
	rep := logic.AnalyzeFig2()
	var sb strings.Builder
	fmt.Fprintf(&sb, "Section 2.1 / Figure 2: 3-input function analysis\n")
	fmt.Fprintf(&sb, "  S3 gate (MUX + 2×ND2WI), fixed select:   %d/256 implementable (paper: \"at least 196\")\n", rep.PerSelectFeasible[0])
	fmt.Fprintf(&sb, "  S3 gate, free select choice:             %d/256 implementable\n", rep.Feasible)
	fmt.Fprintf(&sb, "  globally infeasible functions by Figure 2 category:\n")
	for _, cat := range []logic.S3Category{logic.S3CatND2XOR, logic.S3CatND2XNOR,
		logic.S3CatXOR2, logic.S3CatXNOR2, logic.S3CatXOR3} {
		fmt.Fprintf(&sb, "    %-45s %d\n", cat.String()+":", rep.InfeasibleByCategory[cat])
	}
	fmt.Fprintf(&sb, "  modified S3 cell (Figure 3) complete:    %v (implements all 256)\n", logic.ModifiedS3Complete())
	return sb.String()
}

// SweepPoint is one granularity-sweep sample (experiment E8).
type SweepPoint struct {
	Arch        string
	Slots       string
	PLBArea     float64
	DieArea     float64
	AvgTopSlack float64
	UsedPLBs    int
}

// SweepOptions parameterizes the exploration drivers (granularity and
// routing sweeps, domain exploration). It replaces their former
// positional seed arguments: one struct carries the seed, the worker
// bound, and an optional tracer, and gains new knobs without another
// signature change. The zero value is valid — seed 0, all cores, no
// tracing.
type SweepOptions struct {
	Seed int64
	// Parallel bounds concurrently executing flow runs where the driver
	// parallelizes (0 = GOMAXPROCS, 1 = sequential). Results are
	// bit-identical at any setting.
	Parallel int
	// PlaceWorkers sets each run's annealer worker count (see
	// Config.PlaceWorkers); results are bit-identical at any setting.
	PlaceWorkers int
	// Trace, when set, records every sweep run's stage spans and solver
	// counters (see internal/obs). Tracing never changes results.
	Trace *obs.Tracer
	// Stages, when set, is the stage-granular build cache every sweep
	// run executes against (see Config.Stages). A clock-target sweep
	// shares everything through placement; re-running a sweep restores
	// every stage. Pure acceleration: results are bit-identical with or
	// without it.
	Stages *StageCache
}

// workers resolves the worker bound.
func (o SweepOptions) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// fanOut runs fn(i) for every i in [0, n) on at most workers
// goroutines, starting calls in index order. Every call runs even if
// another fails; the returned error is that of the lowest failing
// index, so callers that write results by index get the same output
// and error at any width.
func fanOut(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunGranularitySweep runs one design across a family of PLB
// architectures of increasing granularity (experiment E8) in process:
// the sweep orchestration of RunGranularitySweepWith, with each point
// run by RunConfig on its own opts.Trace row against opts.Stages and
// one shared router-state pool. The family is given resolved, so its
// cells have no request form (see Cell.Request).
func RunGranularitySweep(ctx context.Context, d bench.Design, archs []*cells.PLBArch, opts SweepOptions) ([]SweepPoint, error) {
	pool := route.NewPool()
	return granularitySweep(ctx, d, archs, nil, opts, func(ctx context.Context, c Cell) (*Report, error) {
		run := opts.Trace.NewRun(c.Label)
		defer run.Close()
		rep, _, err := RunConfig(ctx, c.Design, Config{Arch: c.Arch, Flow: c.Flow, ClockPeriod: c.Clock,
			Seed: opts.Seed, PlaceWorkers: opts.PlaceWorkers, Trace: run,
			Stages: opts.Stages, routePool: pool})
		return rep, err
	})
}

// RunGranularitySweepWith runs the granularity sweep over a
// declarative architecture family with each point executed by run.
// The first architecture pins the clock period (its run derives one);
// the remaining points then run concurrently, bounded by
// opts.Parallel, with the same points and the same error at any width
// and for any run. Of opts, only Parallel steers the orchestration.
func RunGranularitySweepWith(ctx context.Context, d bench.Design, specs []ArchSpec, opts SweepOptions, run CellRunner) ([]SweepPoint, error) {
	archs := make([]*cells.PLBArch, len(specs))
	for i, spec := range specs {
		arch, err := spec.Resolve()
		if err != nil {
			return nil, err
		}
		archs[i] = arch
	}
	return granularitySweep(ctx, d, archs, specs, opts, run)
}

// granularitySweep is the sweep orchestration behind both entry
// points; specs, when set, are archs' request specs.
func granularitySweep(ctx context.Context, d bench.Design, archs []*cells.PLBArch, specs []ArchSpec, opts SweepOptions, run CellRunner) ([]SweepPoint, error) {
	if len(archs) == 0 {
		return nil, nil
	}
	out := make([]SweepPoint, len(archs))
	// point runs archs[i] at clock and writes its sample to out[i];
	// points write disjoint entries.
	point := func(i int, clock float64) (*Report, error) {
		arch := archs[i]
		c := Cell{Design: d, Arch: arch, Flow: FlowB, Clock: clock, Label: "sweep/" + d.Name + "/" + arch.Name}
		if specs != nil {
			c.spec = specs[i]
		}
		rep, err := run(ctx, c)
		if err != nil {
			return nil, fmt.Errorf("sweep %s: %w", arch.Name, err)
		}
		out[i] = SweepPoint{
			Arch: arch.Name, Slots: arch.SlotSummary(), PLBArea: arch.Area,
			DieArea: rep.DieArea, AvgTopSlack: rep.AvgTopSlack,
			UsedPLBs: rep.Rows * rep.Cols,
		}
		return rep, nil
	}
	first, err := point(0, 0)
	if err != nil {
		return nil, err
	}
	err = fanOut(len(archs)-1, opts.workers(), func(k int) error {
		_, err := point(k+1, first.ClockPeriod)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DefaultSweepArchs returns the E8 architecture family: from coarse
// (LUT-heavy) to fine (MUX-rich) granularity, plus an FF-rich variant
// for the Firewire observation. The family is defined declaratively by
// DefaultSweepArchSpecs so it can travel as JSON tickets.
func DefaultSweepArchs() []*cells.PLBArch {
	specs := DefaultSweepArchSpecs()
	out := make([]*cells.PLBArch, len(specs))
	for i, spec := range specs {
		arch, err := spec.Resolve()
		if err != nil {
			panic(fmt.Sprintf("core: default sweep arch %d: %v", i, err)) // unreachable: the family is static
		}
		out[i] = arch
	}
	return out
}
