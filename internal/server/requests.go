package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/core"
	"vpga/internal/defect"
	"vpga/internal/obs"
	"vpga/internal/qor"
)

// MatrixRequest is the serializable description of one Table 1/2
// matrix run (POST /v1/matrix). Like core.FlowRequest it carries only
// result-bearing knobs; Parallel is execution state and is excluded
// from the cache key because matrix reports are bit-identical at any
// worker count.
type MatrixRequest struct {
	// Scale sizes the benchmark suite: "test" (default) or "paper".
	Scale       string `json:"scale,omitempty"`
	Seed        int64  `json:"seed,omitempty"`
	PlaceEffort int    `json:"place_effort,omitempty"`
	Parallel    int    `json:"parallel,omitempty"`
	// ContinueOnError keeps the matrix going past failing cells; the
	// failures come back in MatrixResult.Errors.
	ContinueOnError bool `json:"continue_on_error,omitempty"`
	// DefectRate > 0 injects a seeded defect map into every cell and
	// runs defective cells through the repair ladder.
	DefectRate   float64 `json:"defect_rate,omitempty"`
	DefectSeed   int64   `json:"defect_seed,omitempty"`
	RepairBudget int     `json:"repair_budget,omitempty"`
}

func (r MatrixRequest) normalize() MatrixRequest {
	if r.Scale == "" {
		r.Scale = "test"
	}
	if r.DefectRate <= 0 {
		r.DefectRate, r.DefectSeed, r.RepairBudget = 0, 0, 0
	} else if r.RepairBudget == 0 {
		r.RepairBudget = core.DefaultRepairBudget
	}
	return r
}

func (r MatrixRequest) validate() error {
	if r.Scale != "" && r.Scale != "test" && r.Scale != "paper" {
		return fmt.Errorf("unknown scale %q (want test or paper)", r.Scale)
	}
	if r.DefectRate < 0 || r.DefectRate >= 1 {
		return fmt.Errorf("defect_rate %g outside [0,1)", r.DefectRate)
	}
	return nil
}

// cacheKey is the request's content address; the Parallel knob is
// zeroed first because it never changes the result.
func (r MatrixRequest) cacheKey() (string, error) {
	n := r.normalize()
	n.Parallel = 0
	return core.CanonicalKey("matrix", n)
}

func (r MatrixRequest) suite() bench.Suite {
	if r.normalize().Scale == "paper" {
		return bench.PaperSuite()
	}
	return bench.TestSuite()
}

// MatrixResult is the matrix job payload: every populated report
// (metrics stripped, so the payload is deterministic and cacheable),
// the rendered paper tables and derived claims when the matrix is
// complete, and the error ledger when it is not.
type MatrixResult struct {
	Reports map[string]map[string]map[string]*core.Report `json:"reports"`
	Errors  []string                                      `json:"errors,omitempty"`
	Table1  string                                        `json:"table1,omitempty"`
	Table2  string                                        `json:"table2,omitempty"`
	Claims  *core.Claims                                  `json:"claims,omitempty"`
}

// matrixResult renders a finished matrix as the job payload, on either
// role. Wall-clock metrics are stripped so the payload depends only on
// the request: the fresh response and every later cache hit serve
// byte-identical matrices.
func matrixResult(m *core.Matrix) MatrixResult {
	m.StripMetrics()
	res := MatrixResult{Reports: m.Reports}
	for _, fe := range m.Errors {
		res.Errors = append(res.Errors, fe.Error())
	}
	if len(m.Errors) == 0 {
		res.Table1 = m.Table1()
		res.Table2 = m.Table2()
		claims := m.DeriveClaims()
		res.Claims = &claims
	}
	return res
}

// SweepRequest is the serializable description of an exploration
// sweep (POST /v1/sweeps/granularity, POST /v1/sweeps/routing). The
// design block mirrors core.FlowRequest: a named benchmark at a scale,
// or inline RTL under a display name.
type SweepRequest struct {
	Design string `json:"design,omitempty"`
	Scale  string `json:"scale,omitempty"`
	RTL    string `json:"rtl,omitempty"`
	Name   string `json:"name,omitempty"`

	Seed     int64 `json:"seed,omitempty"`
	Parallel int   `json:"parallel,omitempty"`

	// Archs is the granularity sweep's architecture family (empty =
	// the standard DefaultSweepArchs family).
	Archs []core.ArchSpec `json:"archs,omitempty"`
	// Arch and Capacities belong to the routing sweep (defaults:
	// granular PLB; tracks 4, 8, 16, 32, 64).
	Arch       *core.ArchSpec `json:"arch,omitempty"`
	Capacities []int          `json:"capacities,omitempty"`
}

func (r SweepRequest) normalize() SweepRequest {
	if r.RTL != "" {
		r.Scale = ""
		if r.Name == "" {
			r.Name = "inline"
		}
	} else {
		r.Name = ""
		if r.Scale == "" {
			r.Scale = "test"
		}
	}
	if len(r.Archs) > 0 {
		// Copy before normalizing: the slice aliases the caller's request.
		archs := make([]core.ArchSpec, len(r.Archs))
		for i := range r.Archs {
			archs[i] = r.Archs[i].Normalize()
		}
		r.Archs = archs
	}
	if r.Arch != nil {
		a := r.Arch.Normalize()
		r.Arch = &a
	}
	return r
}

// cacheKey content-addresses the sweep under its endpoint's namespace;
// Parallel is execution state and excluded.
func (r SweepRequest) cacheKey(namespace string) (string, error) {
	n := r.normalize()
	n.Parallel = 0
	return core.CanonicalKey(namespace, n)
}

func (r SweepRequest) resolveDesign() (bench.Design, error) {
	n := r.normalize()
	return core.ResolveDesign(n.Design, n.Scale, n.RTL, n.Name)
}

// jobKind declares one job kind once, for both daemon roles: its
// submission route, its request preparation (strict decode, then
// validation and normalization) and the decoder reviving its persisted
// results. Worker and coordinator routes, journal replay, the peer and
// artifact-store tiers and POST /v1/batch all go through this table.
type jobKind struct {
	name   string // "run", "matrix", "sweep/granularity", "sweep/routing"
	path   string
	parse  func(body io.Reader) (*submission, error)
	stored func(raw []byte) (any, error)
}

var jobKinds = []*jobKind{
	{name: "run", path: "/v1/runs", parse: decodeKind(prepareRun), stored: func(raw []byte) (any, error) {
		rep := &core.Report{}
		return rep, json.Unmarshal(raw, rep)
	}},
	{name: "matrix", path: "/v1/matrix", parse: decodeKind(prepareMatrix), stored: storedAs[MatrixResult]},
	{name: "sweep/granularity", path: "/v1/sweeps/granularity", parse: decodeKind(prepareGranularitySweep), stored: storedAs[[]core.SweepPoint]},
	{name: "sweep/routing", path: "/v1/sweeps/routing", parse: decodeKind(prepareRoutingSweep), stored: storedAs[[]core.RoutingPoint]},
}

// kindNamed looks a job kind up by name (nil when unknown).
func kindNamed(name string) *jobKind {
	for _, k := range jobKinds {
		if k.name == name {
			return k
		}
	}
	return nil
}

// prepare turns a request body into a validated submission of this
// kind; an error is the client's fault (a 400).
func (k *jobKind) prepare(body io.Reader) (*submission, error) {
	sub, err := k.parse(body)
	if err != nil {
		return nil, err
	}
	sub.kind = k
	return sub, nil
}

// storedAs revives a persisted result as a value of type T. Any decode
// failure is a miss (the store's contract: corrupt or unreadable
// entries are recomputed, never fatal).
func storedAs[T any](raw []byte) (any, error) {
	var v T
	err := json.Unmarshal(raw, &v)
	return v, err
}

// decodeKind strictly decodes a request of type R, prepares it, and
// stamps the submission's canonical body.
func decodeKind[R any](prep func(R) (*submission, error)) func(io.Reader) (*submission, error) {
	return func(body io.Reader) (*submission, error) {
		var req R
		if err := decodeStrict(body, &req); err != nil {
			return nil, err
		}
		sub, err := prep(req)
		if err != nil {
			return nil, err
		}
		if sub.body, err = json.Marshal(req); err != nil {
			return nil, err
		}
		return sub, nil
	}
}

// submission is a validated, normalized request: everything either
// role needs to admit and execute it.
type submission struct {
	kind  *jobKind
	key   string // content address ("" = uncacheable)
	label string
	// body is the canonical JSON of the request — what a worker
	// journals on acceptance (so replay rebuilds the submitted job, not
	// an approximation of it) and what a coordinator ships to a worker.
	body []byte
	// stageKeys is the run's per-stage key chain (runs only): which
	// content addresses its artifacts live under, derivable from the
	// request alone and so known from acceptance.
	stageKeys []core.StageKey

	// local executes the job on a worker. cachePrep converts its result
	// into the immutable value the worker caches (nil = as returned);
	// ledger extracts the result's QoR records for the run ledger (nil =
	// not ledger-shaped).
	local     func(ctx context.Context, s *Server, tr *obs.Tracer) (any, error)
	cachePrep func(any) any
	ledger    func(any) []qor.Record
	// remote executes the job on a coordinator by shipping it, or each
	// of its cells, as tickets to the fleet; cached reports that the
	// result came from a cache.
	remote func(c *Coordinator, j *job) (result any, cached bool, err error)
}

// prepareRun validates a flow-run request. A coordinator forwards the
// run whole to the ring owner of its key.
func prepareRun(req core.FlowRequest) (*submission, error) {
	key, err := req.CacheKey()
	if err != nil {
		return nil, err
	}
	n := req.Normalize()
	sub := &submission{key: key, label: n.Design + n.Name + "/" + n.Arch.Kind + "/flow " + n.Flow}
	if keys, err := req.StageKeys(); err == nil {
		sub.stageKeys = keys
	}
	sub.local = func(ctx context.Context, s *Server, tr *obs.Tracer) (any, error) {
		run := tr.NewRun(sub.label)
		defer run.Close()
		res, err := core.Run(ctx, req, core.ExecOptions{Trace: run, Stages: s.stages})
		if err != nil {
			return nil, err
		}
		return res.Report, nil
	}
	// Cache a metrics-stripped deep clone: wall-clock artifacts are
	// execution state, not content, and the cache must never alias a
	// report already handed to a response encoder.
	sub.cachePrep = func(v any) any {
		rep := v.(*core.Report).Clone()
		rep.StripMetrics()
		return rep
	}
	sub.ledger = func(v any) []qor.Record {
		rep, ok := v.(*core.Report)
		if !ok || rep == nil {
			return nil
		}
		return []qor.Record{qor.FromReport(rep, n.Seed, key)}
	}
	sub.remote = func(c *Coordinator, j *job) (any, bool, error) {
		return c.forward(j, sub.label)
	}
	return sub, nil
}

// prepareMatrix validates a matrix request. A coordinator runs the
// same matrix orchestration with every cell shipped as a ticket.
func prepareMatrix(req MatrixRequest) (*submission, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	key, err := req.cacheKey()
	if err != nil {
		return nil, err
	}
	n := req.normalize()
	sub := &submission{key: key, label: "matrix/" + n.Scale}
	sub.local = func(ctx context.Context, s *Server, tr *obs.Tracer) (any, error) {
		opts := core.MatrixOptions{
			Seed: n.Seed, PlaceEffort: n.PlaceEffort, Parallel: req.Parallel,
			ContinueOnError: n.ContinueOnError, RepairBudget: n.RepairBudget,
			Trace: tr, Stages: s.stages,
		}
		if n.DefectRate > 0 {
			opts.Defects = defect.New(n.DefectSeed, n.DefectRate)
		}
		m, err := core.RunMatrix(ctx, req.suite(), opts)
		if err != nil {
			return nil, err
		}
		return matrixResult(m), nil
	}
	// Matrix cells are not request-shaped (RunMatrix pins clocks across
	// flows), so their ledger records carry no cache key.
	sub.ledger = func(v any) []qor.Record {
		res, ok := v.(MatrixResult)
		if !ok {
			return nil
		}
		var recs []qor.Record
		for _, archs := range res.Reports {
			for _, flows := range archs {
				for _, rep := range flows {
					if rep != nil {
						recs = append(recs, qor.FromReport(rep, n.Seed, ""))
					}
				}
			}
		}
		sort.Slice(recs, func(i, k int) bool { return recs[i].ID() < recs[k].ID() })
		return recs
	}
	sub.remote = func(c *Coordinator, j *job) (any, bool, error) {
		return c.composite(j, func() (any, error) { return c.runMatrix(j, req) })
	}
	return sub, nil
}

// prepareGranularitySweep validates a granularity-sweep request —
// design and every architecture of the family. A coordinator runs the
// same sweep orchestration with every point shipped as a ticket.
func prepareGranularitySweep(req SweepRequest) (*submission, error) {
	d, err := req.resolveDesign()
	if err != nil {
		return nil, err
	}
	n := req.normalize()
	specs := n.Archs
	if len(specs) == 0 {
		specs = core.DefaultSweepArchSpecs()
	}
	archs := make([]*cells.PLBArch, len(specs))
	for i, spec := range specs {
		if archs[i], err = spec.Resolve(); err != nil {
			return nil, err
		}
	}
	key, err := req.cacheKey("sweep/granularity")
	if err != nil {
		return nil, err
	}
	sub := &submission{key: key, label: "sweep/" + d.Name}
	sub.local = func(ctx context.Context, s *Server, tr *obs.Tracer) (any, error) {
		return core.RunGranularitySweep(ctx, d, archs, core.SweepOptions{
			Seed: req.Seed, Parallel: req.Parallel, Trace: tr, Stages: s.stages,
		})
	}
	base := core.FlowRequest{Design: n.Design, Scale: n.Scale, RTL: n.RTL, Name: n.Name, Seed: n.Seed}
	sub.remote = func(c *Coordinator, j *job) (any, bool, error) {
		return c.composite(j, func() (any, error) { return c.runSweep(j, d, specs, base) })
	}
	return sub, nil
}

// prepareRoutingSweep validates a routing-sweep request. A coordinator
// forwards the sweep whole: its capacity points share one placement,
// so it does not split into pure tickets.
func prepareRoutingSweep(req SweepRequest) (*submission, error) {
	d, err := req.resolveDesign()
	if err != nil {
		return nil, err
	}
	spec := core.ArchSpec{}
	if req.Arch != nil {
		spec = *req.Arch
	}
	arch, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	capacities := req.Capacities
	if len(capacities) == 0 {
		capacities = []int{4, 8, 16, 32, 64}
	}
	for _, c := range capacities {
		if c < 1 {
			return nil, fmt.Errorf("capacity %d < 1", c)
		}
	}
	key, err := req.cacheKey("sweep/routing")
	if err != nil {
		return nil, err
	}
	n := req.normalize()
	sub := &submission{key: key, label: "routing/" + d.Name}
	sub.local = func(ctx context.Context, s *Server, tr *obs.Tracer) (any, error) {
		return core.RunRoutingSweep(ctx, d, arch, capacities, core.SweepOptions{
			Seed: req.Seed, Parallel: req.Parallel, Trace: tr, Stages: s.stages,
		})
	}
	sub.remote = func(c *Coordinator, j *job) (any, bool, error) {
		return c.forward(j, "sweep/routing/"+n.Design+n.Name)
	}
	return sub, nil
}
