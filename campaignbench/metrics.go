package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// endToEnd lists the metrics an untraced run reports, in print order.
// BENCHMARK.json declares the same names and units (TestDeclaredMetrics).
var endToEnd = []string{
	"wall_s", "cpu_s", "setup_s", "peak_rss_mb", "alloc_mb",
	"coverage", "jobs_per_s", "job_p50_s",
}

// unbounded lists metrics an untraced run prints but does not report:
// test_cycles follows the seed's luck (which pairs Procedure 2 selects)
// by 20-30% between seeds, more than any bound allows. It stays exact
// for a given seed, and the traced run reports it as core.test_cycles.
var unbounded = []string{"test_cycles"}

// perLayer lists the metrics a traced run reports; the name before the
// dot is the module the number describes.
var perLayer = []string{
	"bmark.load_s", "fault.collapse_s", "fault.collapsed", "core.new_runner_s",
	"fsim.sessions", "fsim.busy_s", "fsim.ts0_s", "fsim.search_s", "fsim.batches",
	"fsim.sim_cycles", "fsim.fault_vectors", "fsim.ns_per_fault_vector",
	"atpg.classify_s", "atpg.faults_in", "atpg.s_per_fault", "atpg.untestable",
	"atpg.aborted", "atpg.decided_ratio",
	"core.loop_s", "core.pairs_tried", "core.pairs_selected", "core.select_ratio",
	"core.iterations", "core.combos", "core.test_cycles",
	"service.submit_p50_ms", "service.queue_wait_p50_s", "service.run_p50_s",
	"service.report_p50_ms", "service.cache_hits", "service.hit_ratio", "service.rejected",
	"checkpoint.writes", "checkpoint.write_s",
	"trace.overhead_ratio",
}

// units gives every metric's unit.
var units = map[string]string{
	"wall_s":                   "s",
	"cpu_s":                    "s",
	"setup_s":                  "s",
	"peak_rss_mb":              "MB",
	"alloc_mb":                 "MB",
	"coverage":                 "ratio",
	"test_cycles":              "cycles",
	"jobs_per_s":               "1/s",
	"job_p50_s":                "s",
	"bmark.load_s":             "s",
	"fault.collapse_s":         "s",
	"fault.collapsed":          "count",
	"core.new_runner_s":        "s",
	"fsim.sessions":            "count",
	"fsim.busy_s":              "s",
	"fsim.ts0_s":               "s",
	"fsim.search_s":            "s",
	"fsim.batches":             "count",
	"fsim.sim_cycles":          "cycles",
	"fsim.fault_vectors":       "count",
	"fsim.ns_per_fault_vector": "ns",
	"atpg.classify_s":          "s",
	"atpg.faults_in":           "count",
	"atpg.s_per_fault":         "s",
	"atpg.untestable":          "count",
	"atpg.aborted":             "count",
	"atpg.decided_ratio":       "ratio",
	"core.loop_s":              "s",
	"core.pairs_tried":         "count",
	"core.pairs_selected":      "count",
	"core.select_ratio":        "ratio",
	"core.iterations":          "count",
	"core.combos":              "count",
	"core.test_cycles":         "cycles",
	"service.submit_p50_ms":    "ms",
	"service.queue_wait_p50_s": "s",
	"service.run_p50_s":        "s",
	"service.report_p50_ms":    "ms",
	"service.cache_hits":       "count",
	"service.hit_ratio":        "ratio",
	"service.rejected":         "count",
	"checkpoint.writes":        "count",
	"checkpoint.write_s":       "s",
	"trace.overhead_ratio":     "ratio",
}

// outcome is what one run measured and checked.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	// problems lists every failed operation or check, for stderr.
	problems []string
	// notes are extra lines for stdout, such as sample counts.
	notes []string
}

// noteDistribution records a timing distribution's sample count, median
// and the highest percentile with at least minTail samples beyond it.
func (o *outcome) noteDistribution(name string, xs []float64) {
	line := fmt.Sprintf("%s: %d samples, median %.6g", name, len(xs), median(xs))
	if p := highestPercentile(len(xs)); p > 50 {
		line += fmt.Sprintf(", p%g %.6g", p, percentile(xs, p))
	} else {
		line += fmt.Sprintf(", no percentile above the median has %d samples beyond it", minTail)
	}
	o.notes = append(o.notes, line)
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// fail records a failed operation or output check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the named metrics one per line with their units, then
// the extra ones (printed, not in the JSON), the failure ratio and every problem, and last the one-line JSON
// result. It reports whether every operation and check passed.
func (o *outcome) report(stdout, stderr io.Writer, workload string, names, extra []string) bool {
	line := resultLine{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(names)),
	}
	for _, n := range names {
		v := o.values[n]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line.Metrics[n] = metricValue{Value: v, Unit: units[n]}
		fmt.Fprintf(stdout, "%-28s %s %s\n", workload+" "+n, strconv.FormatFloat(v, 'g', -1, 64), units[n])
	}
	for _, n := range extra {
		fmt.Fprintf(stdout, "%-28s %s %s (not bounded)\n", workload+" "+n, strconv.FormatFloat(o.values[n], 'g', -1, 64), units[n])
	}
	fmt.Fprintf(stdout, "%-28s %s (%d failed of %d attempted)\n", workload+" fail_ratio",
		strconv.FormatFloat(ratio(float64(o.failed), float64(o.attempted)), 'g', -1, 64), o.failed, o.attempted)
	for _, n := range o.notes {
		fmt.Fprintf(stdout, "%s %s\n", workload, n)
	}
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "campaignbench: %s: %s\n", workload, p)
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "campaignbench: encoding result: %v\n", err)
		return false
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return line.Correct
}

// window measures the host resources one timed stretch of work uses.
type window struct {
	start time.Time
	cpu   time.Duration
	alloc uint64
}

func startWindow() window {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return window{start: time.Now(), cpu: cpuTime(), alloc: ms.TotalAlloc}
}

// stop returns the window's wall seconds, CPU seconds and megabytes
// allocated.
func (w window) stop() (wall, cpu, allocMB float64) {
	wall = time.Since(w.start).Seconds()
	cpu = (cpuTime() - w.cpu).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return wall, cpu, float64(ms.TotalAlloc-w.alloc) / 1e6
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set (VmHWM) in
// megabytes, or 0 where /proc does not provide it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}
