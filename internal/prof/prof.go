// Package prof is the performance-observability layer behind the
// -profile-dir and runtime-telemetry flags: per-phase CPU/heap/alloc
// profile capture driven by the trace recorder's phase brackets, and a
// background sampler that feeds the Go runtime's memory and scheduler
// state into obs gauges.
//
// Like the rest of the observability stack, everything is nil-safe: a
// nil *Profiler or *Sampler accepts every method as a no-op, so the
// unprofiled path costs one nil check and zero allocations.
package prof

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
)

// Profiler captures one pprof profile set per observed phase. It is a
// trace.PhaseListener: attach it with Recorder.SetPhaseListener on the
// observer's recorder and every StartPhase/End bracket produces
//
//	<dir>/<phase>.cpu.pprof     CPU samples over the phase
//	<dir>/<phase>.heap.pprof    live-heap profile at phase end
//	<dir>/<phase>.allocs.pprof  cumulative allocation profile at phase end
//
// all loadable with `go tool pprof`. A phase that runs more than once
// (an -auto search re-running ts0_gen, say) numbers later captures
// <phase>.2.cpu.pprof and so on, so nothing is overwritten.
//
// The Go runtime allows one active CPU profile per process; if a second
// phase starts while one is being profiled (phases in this repository
// are sequential, so only a caller bug gets here), the nested phase gets
// heap/alloc profiles but no CPU profile, and the skip is reported by
// Close.
type Profiler struct {
	dir string

	mu sync.Mutex
	// seen counts starts per phase name (file numbering); active maps a
	// running phase to its file stem.
	seen   map[string]int
	active map[string]string
	// cpuStem is the stem holding the process-wide CPU profile, "" when
	// none is running.
	cpuStem string
	cpuFile *os.File
	errs    []error
}

// New returns a Profiler writing into dir, creating it if needed.
func New(dir string) (*Profiler, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("prof: %w", err)
	}
	return &Profiler{
		dir:    dir,
		seen:   make(map[string]int),
		active: make(map[string]string),
	}, nil
}

// Dir returns the capture directory ("" for a nil Profiler).
func (p *Profiler) Dir() string {
	if p == nil {
		return ""
	}
	return p.dir
}

// PhaseStart begins the phase's CPU capture.
func (p *Profiler) PhaseStart(name string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seen[name]++
	stem := sanitize(name)
	if n := p.seen[name]; n > 1 {
		stem = fmt.Sprintf("%s.%d", stem, n)
	}
	p.active[name] = stem
	if p.cpuStem != "" {
		p.errs = append(p.errs, fmt.Errorf("prof: phase %s: CPU profile skipped (phase %s still holds it)", name, p.cpuStem))
		return
	}
	f, err := os.Create(filepath.Join(p.dir, stem+".cpu.pprof"))
	if err != nil {
		p.errs = append(p.errs, err)
		return
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		// Someone outside this Profiler is profiling (e.g. a concurrent
		// /debug/pprof/profile scrape); yield rather than fight.
		f.Close()
		os.Remove(f.Name())
		p.errs = append(p.errs, fmt.Errorf("prof: phase %s: %w", name, err))
		return
	}
	p.cpuStem = stem
	p.cpuFile = f
}

// PhaseEnd stops the phase's CPU capture and writes its heap and alloc
// profiles. Ends without a matching start are ignored.
func (p *Profiler) PhaseEnd(name string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	stem, ok := p.active[name]
	if !ok {
		return
	}
	delete(p.active, name)
	if p.cpuStem == stem {
		p.stopCPULocked()
	}
	p.writeLookupLocked(stem+".heap.pprof", "heap")
	p.writeLookupLocked(stem+".allocs.pprof", "allocs")
}

func (p *Profiler) stopCPULocked() {
	pprof.StopCPUProfile()
	if p.cpuFile != nil {
		if err := p.cpuFile.Close(); err != nil {
			p.errs = append(p.errs, err)
		}
	}
	p.cpuStem, p.cpuFile = "", nil
}

func (p *Profiler) writeLookupLocked(file, profile string) {
	f, err := os.Create(filepath.Join(p.dir, file))
	if err != nil {
		p.errs = append(p.errs, err)
		return
	}
	if err := pprof.Lookup(profile).WriteTo(f, 0); err != nil {
		p.errs = append(p.errs, fmt.Errorf("prof: %s: %w", file, err))
	}
	if err := f.Close(); err != nil {
		p.errs = append(p.errs, err)
	}
}

// Close stops any still-running CPU capture (a phase interrupted mid-
// span, say) and reports every capture error accumulated along the way.
// Profiling is observational: callers log the error, they do not fail
// the run over it.
func (p *Profiler) Close() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cpuStem != "" {
		p.stopCPULocked()
	}
	p.active = make(map[string]string)
	return errors.Join(p.errs...)
}

// sanitize maps a phase name onto a safe file stem: anything outside
// [A-Za-z0-9._-] becomes '_', and an empty name becomes "phase".
func sanitize(name string) string {
	if name == "" {
		return "phase"
	}
	out := make([]byte, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			out[i] = c
		default:
			out[i] = '_'
		}
	}
	return string(out)
}
