package service

import (
	"fmt"
	"time"

	"limscan/internal/bmark"
	"limscan/internal/circuit"
	"limscan/internal/core"
	"limscan/internal/errs"
	"limscan/internal/trace"
)

// Spec is a campaign submission: the POST /v1/campaigns request body.
// It carries every result-affecting parameter of a Procedure 2 run —
// exactly the fields that feed core.Config and, through it, the
// ParamsHash the results cache is keyed by. Two Specs that hash equal
// compute byte-identical reports (see DESIGN.md §8), which is what
// makes memoizing on the hash sound.
type Spec struct {
	// Circuit names a benchmark-registry netlist (see `limscan -list`).
	Circuit string `json:"circuit"`
	// LA, LB, N define TS0; zero means the limscan CLI defaults
	// (LA=8, LB=16, N=64).
	LA int `json:"la,omitempty"`
	LB int `json:"lb,omitempty"`
	N  int `json:"n,omitempty"`
	// Seed is the campaign base seed; zero means 1.
	Seed uint64 `json:"seed,omitempty"`
	// D1Descending selects the Table 7 schedule 10..1.
	D1Descending bool `json:"d1_descending,omitempty"`
	// Workers is the per-job fault-simulation worker count; zero defers
	// to the service default. Result-neutral at any count.
	Workers int `json:"workers,omitempty"`
}

// withDefaults fills the CLI-compatible defaults, so a minimal body
// like {"circuit":"s298"} means the same campaign `limscan -circuit
// s298` runs.
func (sp Spec) withDefaults() Spec {
	if sp.LA == 0 {
		sp.LA = 8
	}
	if sp.LB == 0 {
		sp.LB = 16
	}
	if sp.N == 0 {
		sp.N = 64
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	return sp
}

// resolve validates the spec and loads its circuit. All failures are
// errs.Input: the request is what's wrong.
func (sp Spec) resolve() (*circuit.Circuit, core.Config, error) {
	sp = sp.withDefaults()
	if sp.Circuit == "" {
		return nil, core.Config{}, errs.Newf(errs.Input, "service: spec needs a circuit (see `limscan -list`)")
	}
	c, err := bmark.Load(sp.Circuit)
	if err != nil {
		return nil, core.Config{}, errs.Wrap(errs.Input, err)
	}
	if sp.Workers < 0 {
		return nil, core.Config{}, errs.Newf(errs.Input, "service: workers must be >= 0 (got %d)", sp.Workers)
	}
	cfg := core.Config{
		LA: sp.LA, LB: sp.LB, N: sp.N, Seed: sp.Seed,
		Workers: sp.Workers,
	}
	if sp.D1Descending {
		cfg.D1Order = core.DescendingD1()
	}
	if err := cfg.Validate(); err != nil {
		return nil, core.Config{}, errs.Wrap(errs.Input, err)
	}
	return c, cfg, nil
}

// State is a job's lifecycle position. Terminal states are done,
// failed and canceled.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether the state can never change again.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Summary is the result digest a finished job exposes — the scalar
// rows of the full report, for clients that don't want to parse text.
type Summary struct {
	Faults      int     `json:"faults"`
	Untestable  int     `json:"untestable"`
	Detected    int     `json:"detected"`
	Pairs       int     `json:"pairs"`
	TotalCycles int64   `json:"total_cycles"`
	Coverage    float64 `json:"coverage"`
	Complete    bool    `json:"complete"`
}

// summarize digests a campaign result.
func summarize(res *core.Result) Summary {
	return Summary{
		Faults:      res.TotalFaults,
		Untestable:  res.Untestable,
		Detected:    res.Detected,
		Pairs:       len(res.Pairs),
		TotalCycles: res.TotalCycles,
		Coverage:    res.Coverage(),
		Complete:    res.Complete,
	}
}

// View is a job's wire representation: every GET/POST/DELETE response
// body that describes a job is exactly this shape (the conformance
// suite pins it with golden files).
type View struct {
	ID         string `json:"id"`
	State      State  `json:"state"`
	Circuit    string `json:"circuit"`
	ParamsHash string `json:"params_hash"`
	Spec       Spec   `json:"spec"`
	// CacheHit marks a job served from the memoized results cache
	// without running a simulation; Resumed marks one continued from a
	// crash-recovery checkpoint; Recovered marks one re-queued from its
	// on-disk spec after a restart.
	CacheHit  bool `json:"cache_hit,omitempty"`
	Resumed   bool `json:"resumed,omitempty"`
	Recovered bool `json:"recovered,omitempty"`
	// Error and ErrorKind describe a failed or canceled job's terminal
	// error in the errs taxonomy vocabulary.
	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`
	// Summary is present once the job is done.
	Summary *Summary `json:"summary,omitempty"`
	// Timestamps, RFC 3339. Started/Finished are zero until reached.
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// job is the service-internal job record. The containing Service's
// mutex guards every mutable field; the run loop mutates only through
// Service methods that hold it.
type job struct {
	id    string
	state State
	spec  Spec
	hash  string

	cacheHit  bool
	resumed   bool
	recovered bool
	// userCanceled distinguishes a DELETE-initiated interruption from a
	// shutdown one: only the former discards the job's state files.
	userCanceled bool
	err          error

	summary *Summary
	report  []byte

	created  time.Time
	started  time.Time
	finished time.Time

	// cancel stops the job's run context; set while running. Canceling
	// a queued job just flips its state — the scheduler skips it.
	cancel func()
	// done closes when the job reaches a terminal state, so tests and
	// handlers can wait without polling internal state.
	done chan struct{}
	// tracer records the job's execution trace for /trace/{id}.
	tracer *trace.Recorder
}

// view renders the wire representation. Callers hold the service lock.
func (j *job) view() View {
	v := View{
		ID:         j.id,
		State:      j.state,
		Circuit:    j.spec.Circuit,
		ParamsHash: j.hash,
		Spec:       j.spec,
		CacheHit:   j.cacheHit,
		Resumed:    j.resumed,
		Recovered:  j.recovered,
		Summary:    j.summary,
		Created:    j.created,
	}
	if j.err != nil {
		v.Error = j.err.Error()
		v.ErrorKind = errs.KindString(j.err)
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// jobID formats the sequential job identifier.
func jobID(seq int) string { return fmt.Sprintf("c%06d", seq) }
