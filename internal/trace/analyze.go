package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// The scaling diagnoser: turns a span timeline into the numbers that
// decide whether sharded fault simulation is worth its workers — and
// when it is not, which of the three suspects (serial sections between
// runs, the merge barrier, dispatch starvation inside runs) is eating
// the speedup.
//
// Vocabulary (all derived from recorded spans, nothing sampled):
//
//   - busy: time a worker spent simulating batches (CatBatch spans).
//   - merge stall: time a worker sat at the barrier after its last
//     batch while slower siblings finished (CatWait spans) — the
//     shard-imbalance cost.
//   - starvation: time inside a sharded run a worker was neither
//     simulating nor waiting at the barrier — dispatch gaps.
//   - serial: wall time outside every sharded fsim run — TS0
//     generation, ATPG classification, Procedure 1 insertion, merges,
//     checkpoint writes, and runs that took the serial path.
//
// The Amdahl estimate treats the sharded-run windows as the
// parallelizable fraction: with S = serial seconds and P = total busy
// seconds inside sharded windows, the projected ceiling is
// (S+P)/S regardless of worker count, and the "perfectly balanced at W
// workers" projection is (S+P)/(S+P/W).

// WorkerStat is one worker track's accounting.
type WorkerStat struct {
	Name string `json:"name"`
	// Batches is the number of batch spans recorded on this track.
	Batches int `json:"batches"`
	// BusySeconds is total simulate time; WaitSeconds is merge-barrier
	// stall; StarveSeconds is in-run idle not explained by either.
	BusySeconds   float64 `json:"busy_seconds"`
	WaitSeconds   float64 `json:"wait_seconds"`
	StarveSeconds float64 `json:"starve_seconds"`
	// InRunSeconds is the total sharded-run window time this worker was
	// part of; Utilization is Busy/InRun.
	InRunSeconds float64 `json:"in_run_seconds"`
	Utilization  float64 `json:"utilization"`
}

// PathSlice is one row of the critical-path breakdown: exclusive time
// attributed to a span name on the campaign track.
type PathSlice struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Count   int     `json:"count"`
}

// Analysis is the scaling diagnosis of one trace.
type Analysis struct {
	WallSeconds float64 `json:"wall_seconds"`

	Runs        int `json:"runs"`
	ShardedRuns int `json:"sharded_runs"`
	// Workers is the maximum worker count observed on a sharded run.
	Workers int `json:"workers"`

	WorkerStats []WorkerStat `json:"worker_stats,omitempty"`

	// Aggregates across workers.
	BusySeconds       float64 `json:"busy_seconds"`
	MergeStallSeconds float64 `json:"merge_stall_seconds"`
	StarveSeconds     float64 `json:"starve_seconds"`
	MergeSeconds      float64 `json:"merge_seconds"`
	CheckpointSeconds float64 `json:"checkpoint_seconds"`

	// Amdahl decomposition: Wall = Serial + sharded-run windows;
	// ParallelBusy is worker busy time inside those windows.
	SerialSeconds  float64 `json:"serial_seconds"`
	ParallelBusy   float64 `json:"parallel_busy_seconds"`
	SerialFraction float64 `json:"serial_fraction"`
	// MaxSpeedup is the W→∞ ceiling (S+P)/S; BalancedSpeedup the
	// perfectly balanced projection at the observed worker count;
	// MeasuredSpeedup the serial-equivalent (S+P) over the actual wall.
	MaxSpeedup      float64 `json:"max_speedup"`
	BalancedSpeedup float64 `json:"balanced_speedup"`
	MeasuredSpeedup float64 `json:"measured_speedup"`

	// CriticalPath is the exclusive-time breakdown of the campaign
	// track, largest first.
	CriticalPath []PathSlice `json:"critical_path,omitempty"`

	// DroppedSpans sums every track's drop counter (nonzero means the
	// numbers above undercount).
	DroppedSpans int `json:"dropped_spans,omitempty"`

	// Diagnosis is the one-line verdict naming the dominant scaling
	// limiter.
	Diagnosis string `json:"diagnosis"`
}

// window is a [start,end) interval on the shared timeline.
type window struct{ start, end time.Duration }

func overlap(a, b window) time.Duration {
	lo, hi := a.start, a.end
	if b.start > lo {
		lo = b.start
	}
	if b.end < hi {
		hi = b.end
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// Analyze computes the scaling diagnosis of a trace.
func Analyze(m *Model) *Analysis {
	a := &Analysis{}
	var wall time.Duration
	for _, t := range m.Tracks {
		a.DroppedSpans += t.Dropped
		for i := range t.Spans {
			if e := t.Spans[i].End(); e > wall {
				wall = e
			}
		}
	}
	a.WallSeconds = wall.Seconds()

	// Sharded-run windows come from the campaign track's CatRun spans.
	var sharded []window
	main := m.Track(MainTrack)
	if main != nil {
		for i := range main.Spans {
			sp := &main.Spans[i]
			switch sp.Cat {
			case CatRun:
				a.Runs++
				w, _ := sp.Arg("workers")
				if w > 1 {
					a.ShardedRuns++
					sharded = append(sharded, window{sp.Start, sp.End()})
					if int(w) > a.Workers {
						a.Workers = int(w)
					}
				}
			case CatMerge:
				a.MergeSeconds += sp.Dur.Seconds()
			case CatCheckpoint:
				a.CheckpointSeconds += sp.Dur.Seconds()
			}
		}
		a.CriticalPath = criticalPath(main)
	}
	sort.Slice(sharded, func(i, j int) bool { return sharded[i].start < sharded[j].start })
	var shardedTotal time.Duration
	for _, w := range sharded {
		shardedTotal += w.end - w.start
	}

	// Per-worker accounting over the sharded windows.
	for _, t := range m.Tracks {
		if !strings.HasPrefix(t.Name, WorkerTrackPrefix) {
			continue
		}
		ws := WorkerStat{Name: t.Name}
		var busyInRuns time.Duration
		participated := make([]bool, len(sharded))
		// Every number in WorkerStat is clipped to the sharded windows:
		// the serial path also records its batches on "fsim worker 0",
		// and counting those against sharded-run wall time would push
		// utilization past 100%.
		// Spans on a track are recorded in start order (single owner,
		// monotonic clock); windows are sorted, so one cursor suffices.
		wi := 0
		for i := range t.Spans {
			sp := &t.Spans[i]
			if sp.Cat != CatBatch && sp.Cat != CatWait {
				continue
			}
			for wi < len(sharded) && sharded[wi].end <= sp.Start {
				wi++
			}
			var inWindows time.Duration
			for j := wi; j < len(sharded) && sharded[j].start < sp.End(); j++ {
				if ov := overlap(window{sp.Start, sp.End()}, sharded[j]); ov > 0 {
					participated[j] = true
					inWindows += ov
				}
			}
			if inWindows == 0 {
				continue
			}
			if sp.Cat == CatBatch {
				ws.Batches++
				ws.BusySeconds += inWindows.Seconds()
				busyInRuns += inWindows
			} else {
				ws.WaitSeconds += inWindows.Seconds()
			}
		}
		var inRun time.Duration
		for j, p := range participated {
			if p {
				inRun += sharded[j].end - sharded[j].start
			}
		}
		ws.InRunSeconds = inRun.Seconds()
		if starve := ws.InRunSeconds - ws.BusySeconds - ws.WaitSeconds; starve > 0 {
			ws.StarveSeconds = starve
		}
		if ws.InRunSeconds > 0 {
			ws.Utilization = ws.BusySeconds / ws.InRunSeconds
		}
		a.BusySeconds += ws.BusySeconds
		a.MergeStallSeconds += ws.WaitSeconds
		a.StarveSeconds += ws.StarveSeconds
		a.ParallelBusy += busyInRuns.Seconds()
		a.WorkerStats = append(a.WorkerStats, ws)
	}
	sort.Slice(a.WorkerStats, func(i, j int) bool { return a.WorkerStats[i].Name < a.WorkerStats[j].Name })

	// Amdahl decomposition.
	a.SerialSeconds = a.WallSeconds - shardedTotal.Seconds()
	if a.SerialSeconds < 0 {
		a.SerialSeconds = 0
	}
	s, p := a.SerialSeconds, a.ParallelBusy
	if s+p > 0 {
		a.SerialFraction = s / (s + p)
	}
	if s > 0 {
		a.MaxSpeedup = (s + p) / s
		if a.Workers > 1 {
			a.BalancedSpeedup = (s + p) / (s + p/float64(a.Workers))
		}
	}
	if a.WallSeconds > 0 {
		a.MeasuredSpeedup = (s + p) / a.WallSeconds
	}
	a.Diagnosis = a.diagnose()
	return a
}

// diagnose names the dominant scaling limiter. The candidates are the
// seconds each suspect costs relative to a perfectly parallel run; the
// largest one is the verdict.
func (a *Analysis) diagnose() string {
	if a.Runs == 0 {
		return "no fsim runs in trace (nothing to diagnose)"
	}
	if a.ShardedRuns == 0 {
		return "every fsim run took the serial path (workers=1); nothing was parallel"
	}
	type cost struct {
		name    string
		seconds float64
		detail  string
	}
	costs := []cost{
		{"serial sections", a.SerialSeconds,
			"time outside sharded runs (TS0, classify, Procedure 1, merges, checkpoints)"},
		{"merge-barrier stall", a.MergeStallSeconds,
			"workers idle at the end-of-run barrier while stragglers finish (shard imbalance)"},
		{"dispatch starvation", a.StarveSeconds,
			"workers idle mid-run between batch claims"},
	}
	sort.SliceStable(costs, func(i, j int) bool { return costs[i].seconds > costs[j].seconds })
	top := costs[0]
	verdict := fmt.Sprintf("dominant limiter: %s (%.2fs) — %s; Amdahl ceiling %.2fx",
		top.name, top.seconds, top.detail, a.MaxSpeedup)
	if a.Workers > 1 && a.MeasuredSpeedup > 0 && a.BalancedSpeedup > a.MeasuredSpeedup*1.25 {
		verdict += fmt.Sprintf("; measured %.2fx vs %.2fx balanced projection at %d workers",
			a.MeasuredSpeedup, a.BalancedSpeedup, a.Workers)
	}
	return verdict
}

// criticalPath decomposes the campaign track into exclusive time per
// span name. The campaign track is the run's single-threaded spine —
// every phase, fsim run, merge and checkpoint write happens on it — so
// exclusive time there IS the critical-path breakdown: a span's own
// duration minus the spans nested inside it by time containment.
// Quiet accumulations are skipped: they re-time work the phase and run
// spans already cover.
func criticalPath(t *ModelTrack) []PathSlice {
	var idx []int
	for i := range t.Spans {
		if t.Spans[i].Cat != CatQuiet {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return nil
	}
	// Sort by start ascending; ties: longer first (parents before
	// children).
	sort.SliceStable(idx, func(a, b int) bool {
		sa, sb := &t.Spans[idx[a]], &t.Spans[idx[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.Dur > sb.Dur
	})
	excl := make(map[string]*PathSlice)
	add := func(name string, d time.Duration) {
		p := excl[name]
		if p == nil {
			p = &PathSlice{Name: name}
			excl[name] = p
		}
		p.Seconds += d.Seconds()
		p.Count++
	}
	type frame struct {
		i        int
		children time.Duration
	}
	var stack []frame
	pop := func() {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		sp := &t.Spans[f.i]
		own := sp.Dur - f.children
		if own < 0 {
			own = 0
		}
		add(sp.Name, own)
		if len(stack) > 0 {
			stack[len(stack)-1].children += sp.Dur
		}
	}
	for _, i := range idx {
		sp := &t.Spans[i]
		for len(stack) > 0 && t.Spans[stack[len(stack)-1].i].End() <= sp.Start {
			pop()
		}
		stack = append(stack, frame{i: i})
	}
	for len(stack) > 0 {
		pop()
	}
	out := make([]PathSlice, 0, len(excl))
	for _, p := range excl {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// WriteReport prints the one-screen human diagnosis.
func (a *Analysis) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "trace: %.3fs wall, %d fsim runs (%d sharded", a.WallSeconds, a.Runs, a.ShardedRuns)
	if a.Workers > 0 {
		fmt.Fprintf(w, ", %d workers", a.Workers)
	}
	fmt.Fprintf(w, ")\n")
	if a.DroppedSpans > 0 {
		fmt.Fprintf(w, "WARNING: %d spans dropped at the per-track cap; totals undercount\n", a.DroppedSpans)
	}
	if len(a.WorkerStats) > 0 {
		fmt.Fprintf(w, "per-worker (within sharded runs):\n")
		fmt.Fprintf(w, "  %-16s %8s %10s %12s %12s %6s\n",
			"worker", "batches", "busy", "merge-stall", "starvation", "util")
		for _, ws := range a.WorkerStats {
			fmt.Fprintf(w, "  %-16s %8d %9.3fs %11.3fs %11.3fs %5.0f%%\n",
				ws.Name, ws.Batches, ws.BusySeconds, ws.WaitSeconds, ws.StarveSeconds,
				ws.Utilization*100)
		}
		fmt.Fprintf(w, "totals: busy %.3fs, merge-stall %.3fs, starvation %.3fs, merge %.3fs, checkpoint %.3fs\n",
			a.BusySeconds, a.MergeStallSeconds, a.StarveSeconds, a.MergeSeconds, a.CheckpointSeconds)
	}
	if len(a.CriticalPath) > 0 {
		fmt.Fprintf(w, "critical path (campaign track, exclusive time):\n")
		rows := a.CriticalPath
		if len(rows) > 8 {
			rows = rows[:8]
		}
		for _, p := range rows {
			pct := 0.0
			if a.WallSeconds > 0 {
				pct = p.Seconds / a.WallSeconds * 100
			}
			fmt.Fprintf(w, "  %-20s %9.3fs  %5.1f%%  (%d span(s))\n", p.Name, p.Seconds, pct, p.Count)
		}
	}
	fmt.Fprintf(w, "serial %.3fs + parallel work %.3fs: serial fraction %.3f\n",
		a.SerialSeconds, a.ParallelBusy, a.SerialFraction)
	if a.MaxSpeedup > 0 {
		fmt.Fprintf(w, "Amdahl: max speedup %.2fx", a.MaxSpeedup)
		if a.BalancedSpeedup > 0 {
			fmt.Fprintf(w, ", %.2fx if perfectly balanced at %d workers", a.BalancedSpeedup, a.Workers)
		}
		if a.MeasuredSpeedup > 0 {
			fmt.Fprintf(w, ", %.2fx measured", a.MeasuredSpeedup)
		}
		fmt.Fprintf(w, "\n")
	}
	fmt.Fprintf(w, "%s\n", a.Diagnosis)
}
