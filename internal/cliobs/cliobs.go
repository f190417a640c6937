// Package cliobs is the shared glue between the CLIs and the
// observability stack. Flags registers the observability flags a
// command offers and Open builds what they ask for: one Stack holding
// the observer (whose recorder is the run's only span store), runtime
// sampler, per-phase profiler, debug HTTP server, metrics dump, trace
// file and events file. The Stack tears them down in dependency order
// from every exit path — the normal return, the interrupt's exit(3),
// and the degraded exit(4).
package cliobs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"limscan/internal/debugsrv"
	"limscan/internal/errs"
	"limscan/internal/obs"
	"limscan/internal/prof"
)

// Flags holds the observability flag values. A command registers the
// subset it offers with its own help text; values set before Register
// are the defaults.
type Flags struct {
	Metrics     string
	Events      string
	DebugAddr   string
	Trace       string
	ProfileDir  string
	SampleEvery time.Duration
	Ledger      string

	// sample records that -sample-every was offered: only then does an
	// observed run start the runtime sampler.
	sample bool
}

// Usage is the help text per flag. A flag with empty usage is not
// registered.
type Usage struct {
	Metrics, Events, DebugAddr, Trace, ProfileDir, SampleEvery, Ledger string
}

// Register adds the flags u describes to fs.
func (f *Flags) Register(fs *flag.FlagSet, u Usage) {
	str := func(p *string, name, usage string) {
		if usage != "" {
			fs.StringVar(p, name, *p, usage)
		}
	}
	str(&f.Metrics, "metrics", u.Metrics)
	str(&f.Events, "events", u.Events)
	str(&f.DebugAddr, "debug-addr", u.DebugAddr)
	str(&f.Trace, "trace", u.Trace)
	str(&f.ProfileDir, "profile-dir", u.ProfileDir)
	str(&f.Ledger, "ledger", u.Ledger)
	if u.SampleEvery != "" {
		f.sample = true
		fs.DurationVar(&f.SampleEvery, "sample-every", prof.DefaultSampleEvery, u.SampleEvery)
	}
}

// Open builds the Stack the flags ask for. progress is the command's
// narration sink, nil for none. The run is observed when progress is
// set or any flag is; otherwise the Stack is empty and the run pays
// nothing. The debug server listens before Open returns, so a bad
// -debug-addr fails as a usage error before any work starts. On error
// Open releases whatever it had opened.
func (f *Flags) Open(progress obs.Sink) (*Stack, error) {
	s := &Stack{}
	if progress == nil && f.Metrics == "" && f.Events == "" && f.DebugAddr == "" &&
		f.Trace == "" && f.ProfileDir == "" && f.Ledger == "" {
		return s, nil
	}
	fail := func(err error) (*Stack, error) {
		s.Shutdown()
		return nil, err
	}
	sink := progress
	if f.Events != "" {
		ev, err := os.Create(f.Events)
		if err != nil {
			return fail(err)
		}
		s.EventsFile = ev
		sink = obs.Multi(progress, obs.NewJSONLines(ev))
	}
	s.Obs = obs.New(obs.NewRegistry(), sink)
	if f.ProfileDir != "" {
		p, err := prof.New(f.ProfileDir)
		if err != nil {
			return fail(err)
		}
		s.Profiler = p
		s.Obs.Trace().SetPhaseListener(p)
	}
	if f.DebugAddr != "" {
		srv, err := debugsrv.Start(f.DebugAddr, debugsrv.Config{
			Registry: s.Obs.Metrics(),
			Ready:    s.Obs.Trace().Started,
			Trace:    s.Obs.Trace(),
		})
		if err != nil {
			return fail(errs.Wrap(errs.Input, fmt.Errorf("-debug-addr: %w", err)))
		}
		s.Debug = srv
	}
	if f.sample {
		s.Sampler = prof.StartSampler(s.Obs, f.SampleEvery)
	}
	s.metricsPath, s.tracePath = f.Metrics, f.Trace
	return s, nil
}

// Stack is the set of observability resources a CLI opened at startup.
// Nil fields are simply skipped, so a run with no flags pays nothing.
type Stack struct {
	Obs      *obs.Campaign
	Sampler  *prof.Sampler
	Profiler *prof.Profiler
	Debug    *debugsrv.Server

	// metricsPath and tracePath are where the registry dump and the
	// recorder's Chrome trace-event JSON land at teardown ("" nowhere,
	// "-" stdout), so every exit path leaves both behind.
	metricsPath, tracePath string
	// EventsFile is the open -events sink, closed (flushed) last so the
	// teardown itself can still emit events.
	EventsFile *os.File

	once sync.Once
}

// Shutdown releases everything in dependency order: stop the sampler
// (its final sample makes the gauges current), close the profiler
// (stopping any CPU capture an interrupt left running), shut the debug
// server down gracefully, write the metrics dump from the now-final
// registry and the trace file, and close the events file. Idempotent —
// main can defer it and still call it explicitly on the interrupt path.
// The returned errors are reportable, not fatal: observability must
// never turn a finished run into a failed one.
func (s *Stack) Shutdown() []error {
	var errs []error
	s.once.Do(func() {
		s.Sampler.Stop()
		if err := s.Profiler.Close(); err != nil {
			errs = append(errs, err)
		}
		if err := s.Debug.Shutdown(0); err != nil {
			errs = append(errs, fmt.Errorf("debug server: %w", err))
		}
		if s.metricsPath != "" {
			if err := WriteMetrics(s.metricsPath, s.Obs.Metrics()); err != nil {
				errs = append(errs, err)
			}
		}
		if s.tracePath != "" {
			if err := writeFile(s.tracePath, s.Obs.Trace().WriteJSON); err != nil {
				errs = append(errs, fmt.Errorf("trace: %w", err))
			}
		}
		if s.EventsFile != nil {
			if err := s.EventsFile.Close(); err != nil {
				errs = append(errs, fmt.Errorf("events: %w", err))
			}
		}
	})
	return errs
}

// WriteMetrics dumps the registry as JSON to path, with "-" meaning
// stdout (the scripting-friendly spelling: pipe straight into jq).
func WriteMetrics(path string, reg *obs.Registry) error {
	return writeFile(path, reg.WriteJSON)
}

// writeFile hands write the file at path, or stdout for "-".
func writeFile(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Report prints each shutdown error prefixed with the tool name —
// observability failures are worth a line on stderr, never an exit code.
func Report(w io.Writer, tool string, errs []error) {
	for _, err := range errs {
		fmt.Fprintf(w, "%s: %v\n", tool, err)
	}
}
