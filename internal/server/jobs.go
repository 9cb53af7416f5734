package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vpga/internal/core"
	"vpga/internal/obs"
)

// The job lifecycle both daemon roles share. A worker and a
// coordinator differ in exactly two places — how a job is admitted
// (the worker's bounded queue and pool vs. one coordinator goroutine
// per job, bounded by the ticket scheduler) and how it executes
// (core.* locally vs. tickets fanned out over the fleet) — and both
// arrive here as plain arguments; everything else about a job (its
// record, ID, registry, retention, counters, log lines, journal
// entries, status and ?wait=1 answers) is this file.

// job is one client-visible unit of work on either role: an admitted
// submission plus its lifecycle state.
type job struct {
	*submission
	id      string
	created time.Time

	// tracer is the worker's flow telemetry behind GET
	// /v1/runs/{id}/trace and /events (nil on a coordinator).
	tracer *obs.Tracer
	// traceID is the distributed trace the job belongs to: minted per
	// job by a coordinator, taken from the X-Vpga-Trace header by a
	// worker ("" = untraced local job).
	traceID string
	// Coordinator scheduling coordinates every ticket of the job
	// carries, and the recorder behind its merged cluster trace.
	priority int
	tenant   string
	trace    *jobTrace

	done chan struct{} // closed when the job reaches done/failed

	mu      sync.Mutex
	status  string // "queued", "running", "done", "failed"
	started time.Time
	cached  bool
	result  any
	errMsg  string
	stage   string // failing flow stage, when known
	errKind string // machine-readable class: "timeout", "cancelled", ""
}

// start marks the job running.
func (j *job) start() {
	j.mu.Lock()
	j.status = "running"
	j.started = time.Now()
	j.mu.Unlock()
}

// complete records the outcome and wakes waiters.
func (j *job) complete(result any, cached bool, err error) {
	j.mu.Lock()
	if err != nil {
		j.status = "failed"
		j.errMsg = err.Error()
		j.errKind = errKind(err)
		j.stage = errStage(err)
	} else {
		j.status = "done"
		j.result = result
		j.cached = cached
	}
	j.mu.Unlock()
	close(j.done)
}

// response snapshots the job as its API representation.
func (j *job) response() jobResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobResponse{
		ID: j.id, Kind: j.kind.name, Status: j.status, Cached: j.cached, Key: j.key,
		Result: j.result, Error: j.errMsg, Stage: j.stage, ErrorKind: j.errKind,
		StageKeys: j.stageKeys, TraceID: j.traceID,
	}
}

// jobResponse is the envelope of every job-shaped endpoint. Result is
// kind-specific: *core.Report for runs, MatrixResult for matrices,
// []core.SweepPoint / []core.RoutingPoint for sweeps.
type jobResponse struct {
	ID     string `json:"id,omitempty"`
	Kind   string `json:"kind,omitempty"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
	Key    string `json:"key,omitempty"`
	Result any    `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
	Stage  string `json:"stage,omitempty"`
	// ErrorKind is the machine-readable failure class ("timeout",
	// "cancelled") a coordinator keys off — a timeout that happened on a
	// remote worker must still count as a timeout when the envelope
	// comes back over HTTP, without parsing the error string.
	ErrorKind string `json:"error_kind,omitempty"`
	// StageKeys is the run's per-stage key chain (run jobs only): the
	// content addresses of the stage-granular build-cache artifacts the
	// run reads and writes, in pipeline order.
	StageKeys []core.StageKey `json:"stage_keys,omitempty"`
	// TraceID is the distributed trace the job belongs to — minted by
	// the coordinator per client job, or echoed from the X-Vpga-Trace
	// header a submission carried ("" = untraced).
	TraceID string `json:"trace_id,omitempty"`
	// RequestID echoes the request's X-Request-ID on error envelopes so
	// a rejected submission is correlatable in logs without headers.
	RequestID string `json:"request_id,omitempty"`
}

// remoteError is a job failure a worker reported in its envelope: the
// coordinator fails its own job with the same message, stage and
// error class, so a remote timeout still counts as a timeout.
type remoteError struct{ msg, stage, kind string }

func (e *remoteError) Error() string { return e.msg }

// flowError revives a worker's failed-run envelope as the
// *core.FlowError the worker raised for the cell, so a composite's
// ledger renders it byte for byte. That error reads "core:
// design/arch/flow: stage (attempt N): cause", and the cell and the
// envelope name everything but N and the cause, which keeps the
// envelope's error class. A message of any other shape stays as it is.
func (e *remoteError) flowError(cell core.Cell) error {
	fe := &core.FlowError{Design: cell.Design.Name, Arch: cell.Arch.Name, Flow: cell.Flow.String(), Stage: e.stage}
	rest, ok := strings.CutPrefix(e.msg, fmt.Sprintf("core: %s/%s/%s: %s (attempt ", fe.Design, fe.Arch, fe.Flow, fe.Stage))
	attempt, cause, found := strings.Cut(rest, "): ")
	n, err := strconv.Atoi(attempt)
	if e.stage == "" || !ok || !found || err != nil {
		return e
	}
	fe.Attempt, fe.Err = n, &remoteError{msg: cause, stage: e.stage, kind: e.kind}
	return fe
}

// envelopeError is the failure a worker envelope reports (nil when the
// job did not fail).
func envelopeError(env *rawEnvelope) error {
	if env.Status != "failed" {
		return nil
	}
	return &remoteError{msg: env.Error, stage: env.Stage, kind: env.ErrorKind}
}

// errKind distills a job error into the machine-readable class the
// response envelope carries ("" = unclassified): "timeout" when the
// job failed on its wall-clock budget — the context deadline surfaced
// directly or the flow supervisor classified the failing stage — and
// "cancelled" when its context was cancelled. A remote failure keeps
// the class its worker reported.
func errKind(err error) string {
	var re *remoteError
	if errors.As(err, &re) {
		return re.kind
	}
	switch stage := errStage(err); {
	case err == nil:
		return ""
	case errors.Is(err, context.DeadlineExceeded) || stage == "timeout":
		return "timeout"
	case errors.Is(err, context.Canceled) || stage == "cancelled":
		return "cancelled"
	}
	return ""
}

// errStage is the flow stage a job error names, when it names one.
func errStage(err error) string {
	var (
		fe *core.FlowError
		re *remoteError
	)
	switch {
	case errors.As(err, &re):
		return re.stage
	case errors.As(err, &fe):
		return fe.Stage
	}
	return ""
}

// jobRegistry is the job bookkeeping one daemon keeps: ID minting
// (prefix + %06d), lookup, the JobsKeep retention bound, the completion
// counters, the lifecycle log lines and journal entries.
type jobRegistry struct {
	prefix string // "j" on a worker, "c" on a coordinator
	keep   int
	log    *slog.Logger
	// journal durably appends one lifecycle entry (nil = not journaled):
	// every acceptance before it is visible, every terminal outcome.
	journal func(journalEntry)

	nextID                      atomic.Int64
	completed, failed, timeouts atomic.Int64

	mu        sync.Mutex
	byID      map[string]*job
	doneOrder []string // completed jobs, oldest first, for eviction
}

func newJobRegistry(prefix string, keep int, log *slog.Logger, journal func(journalEntry)) *jobRegistry {
	return &jobRegistry{prefix: prefix, keep: keep, log: log, journal: journal, byID: map[string]*job{}}
}

// newJob mints a queued job record for an admitted submission.
func (g *jobRegistry) newJob(sub *submission) *job {
	return &job{
		submission: sub,
		id:         fmt.Sprintf("%s%06d", g.prefix, g.nextID.Add(1)),
		created:    time.Now(),
		done:       make(chan struct{}),
		status:     "queued",
	}
}

// accept journals the job's acceptance, makes it visible to lookups
// and logs it.
func (g *jobRegistry) accept(j *job) {
	if g.journal != nil {
		g.journal(journalEntry{ID: j.id, State: "accepted", Kind: j.kind.name, Key: j.key, Body: j.body})
	}
	g.register(j)
	g.log.Info("job accepted", "job_id", j.id, "kind", j.kind.name, "label", j.label,
		"trace_id", j.traceID, "tenant", j.tenant, "priority", j.priority)
}

// register makes the job visible to lookups.
func (g *jobRegistry) register(j *job) {
	g.mu.Lock()
	g.byID[j.id] = j
	g.mu.Unlock()
}

// finish is every job's terminal transition: counters, the terminal
// journal entry, the lifecycle log line, waking waiters, and the
// retention bound — job records beyond keep are evicted oldest first
// (result caches keep serving evicted jobs' results).
func (g *jobRegistry) finish(j *job, result any, cached bool, err error) {
	if err != nil {
		g.failed.Add(1)
		if errKind(err) == "timeout" {
			g.timeouts.Add(1)
		}
	} else {
		g.completed.Add(1)
	}
	// The terminal entry is what lets a post-restart replay skip the
	// job; if it is lost the job merely replays after a crash —
	// recomputing a deterministic flow, never corrupting state.
	if g.journal != nil {
		e := journalEntry{ID: j.id, State: "done"}
		if err != nil {
			e.State, e.Error, e.Stage = "failed", err.Error(), errStage(err)
		}
		g.journal(e)
	}
	j.mu.Lock()
	dur := time.Since(j.started).Round(time.Millisecond)
	j.mu.Unlock()
	if err != nil {
		g.log.Warn("job failed", "job_id", j.id, "kind", j.kind.name, "trace_id", j.traceID,
			"duration", dur, "error", err)
	} else {
		g.log.Info("job done", "job_id", j.id, "kind", j.kind.name, "trace_id", j.traceID,
			"duration", dur)
	}
	j.complete(result, cached, err)

	g.mu.Lock()
	defer g.mu.Unlock()
	g.doneOrder = append(g.doneOrder, j.id)
	for len(g.doneOrder) > g.keep {
		delete(g.byID, g.doneOrder[0])
		g.doneOrder = g.doneOrder[1:]
	}
}

// tracked is the number of job records currently retained.
func (g *jobRegistry) tracked() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.byID)
}

// lookup resolves the request's {id} path value, answering 404 itself
// when the job is unknown or evicted.
func (g *jobRegistry) lookup(w http.ResponseWriter, r *http.Request) (*job, bool) {
	g.mu.Lock()
	j, ok := g.byID[r.PathValue("id")]
	g.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown or evicted job id"))
	}
	return j, ok
}

// handleStatus serves GET /v1/runs/{id} and its /v1/jobs/{id} alias.
func (g *jobRegistry) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := g.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, j.response())
	}
}

// respondJob answers a submission with the job's state, optionally
// blocking on ?wait=1 until it completes.
func respondJob(w http.ResponseWriter, r *http.Request, j *job) {
	if wantWait(r) {
		select {
		case <-j.done:
		case <-r.Context().Done():
			// Client gone; the job keeps running. Report where it stands.
		}
	}
	resp := j.response()
	status := http.StatusAccepted
	if resp.Status == "done" || resp.Status == "failed" {
		status = http.StatusOK
	}
	writeJSON(w, status, resp)
}

// wantWait reports whether the request asked to block until the job
// completes (?wait=1 / ?wait=true).
func wantWait(r *http.Request) bool {
	switch r.URL.Query().Get("wait") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// handleSubmit is every submission route of both roles: the kind's
// strict decode and validation (a 400 on failure), then the role's
// admission, which answers the client.
func handleSubmit(k *jobKind, admit func(http.ResponseWriter, *http.Request, *submission)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sub, err := k.prepare(http.MaxBytesReader(w, r.Body, maxRequestBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		admit(w, r, sub)
	}
}

// maxRequestBytes caps every request body.
const maxRequestBytes = 4 << 20

// decodeStrict decodes one JSON request value, rejecting unknown
// fields.
func decodeStrict(body io.Reader, into any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, jobResponse{
		Status: "rejected", Error: err.Error(),
		RequestID: responseRequestID(w),
	})
}
