package obs

import (
	"time"

	"limscan/internal/trace"
)

// Campaign is the observer handle threaded through the runner, the fault
// simulator and the baseline: a metrics registry plus an optional event
// sink plus the trace recorder that holds its phase spans. A nil
// *Campaign is the uninstrumented mode — every method is a no-op — so
// callers hold one pointer and never branch.
type Campaign struct {
	reg  *Registry
	sink Sink
	rec  *trace.Recorder
}

// Trace returns the campaign's recorder (nil for a nil Campaign): every
// phase bracket and quiet accumulation is a span there, and a runner
// with no tracer of its own records its fault-simulation spans there
// too, so one export holds the whole run.
func (o *Campaign) Trace() *trace.Recorder {
	if o == nil {
		return nil
	}
	return o.rec
}

// Started reports whether the campaign has opened its first phase span
// (the recorder's readiness latch behind the debugsrv /readyz
// endpoint). A nil Campaign is never started.
func (o *Campaign) Started() bool {
	return o.Trace().Started()
}

// PhaseSpan is the accumulated wall-clock time of one named phase.
type PhaseSpan = trace.Total

// New returns a Campaign over the given registry and sink. A nil
// registry gets a fresh one (metrics are always collectable); a nil sink
// simply discards events.
func New(reg *Registry, sink Sink) *Campaign {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Campaign{reg: reg, sink: sink, rec: trace.New()}
}

// Metrics returns the underlying registry (nil for a nil Campaign).
func (o *Campaign) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Counter, Gauge and Histogram forward to the registry; on a nil
// Campaign they return nil metrics whose methods are no-ops.
func (o *Campaign) Counter(name string) *Counter { return o.Metrics().Counter(name) }

// Gauge returns the named gauge from the campaign registry.
func (o *Campaign) Gauge(name string) *Gauge { return o.Metrics().Gauge(name) }

// Histogram returns the named histogram from the campaign registry.
func (o *Campaign) Histogram(name string, bounds ...float64) *Histogram {
	return o.Metrics().Histogram(name, bounds...)
}

// Emit stamps the event with the current time (when unset) and forwards
// it to the sink, if any.
func (o *Campaign) Emit(e Event) {
	if o == nil || o.sink == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	o.sink.OnEvent(e)
}

// Span is an open phase measurement returned by StartPhase.
type Span struct {
	o     *Campaign
	name  string
	phase trace.Phase
}

// StartPhase opens a named phase bracket on the campaign's recorder and
// emits a phase_start event. Close it with End.
func (o *Campaign) StartPhase(name string) *Span {
	if o == nil {
		return nil
	}
	p := o.rec.StartPhase(name)
	o.Emit(Event{Kind: KindPhaseStart, Phase: name})
	return &Span{o: o, name: name, phase: p}
}

// End closes the span: the recorder keeps it as a phase span, the
// phase duration gauge `phase_seconds{phase="name"}` advances, and a
// phase_end event carries the span length.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := s.phase.End()
	s.o.PhaseGauge(s.name).Add(d.Seconds())
	s.o.Emit(Event{Kind: KindPhaseEnd, Phase: s.name, Seconds: d.Seconds()})
	return d
}

// Accumulate records a quiet span of length d without emitting events —
// the path for spans measured hundreds of times per campaign (Procedure
// 1 insertion, the search's fault-simulation sessions). Like End it
// advances the phase's `phase_seconds` gauge.
func (o *Campaign) Accumulate(name string, d time.Duration) {
	if o == nil {
		return
	}
	o.PhaseGauge(name).Add(d.Seconds())
	o.rec.AddQuiet(name, d)
}

// PhaseGauge returns the `phase_seconds{phase="name"}` gauge.
func (o *Campaign) PhaseGauge(name string) *Gauge {
	return o.Gauge(Label("phase_seconds", "phase", name))
}

// PhaseSummary returns the campaign's phase totals in first-seen order:
// phase brackets, quiet accumulations and fault-simulation runs, summed
// from the recorder's spans.
func (o *Campaign) PhaseSummary() []PhaseSpan {
	return o.Trace().Totals()
}
