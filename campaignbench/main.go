// Command campaignbench is the repository's benchmark for whole
// Procedure 2 campaigns: four workloads that separate classification,
// fault simulation and the service path, end-to-end metrics from
// untraced runs, per-layer metrics from a traced run, and a check of
// every run's outputs. README.md explains the workloads and metrics.
//
// Usage, from the repository root (campaignbench/run.sh builds and runs):
//
//	campaignbench --workload cold_s1196 --seed 1 --seconds 20 --trace 0
//	campaignbench --workload all                   # every workload, then a traced run of each
//	campaignbench --workload auto_s641 --steady 10 # spread of each metric over ten seeds
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics. The exit code is 0 only when every
// operation and every output check passed.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// workload is one named benchmark workload.
type workload struct {
	name string
	// opSeconds is the nominal host time of one operation (a campaign or
	// a missed service job). A run of s seconds performs s/opSeconds
	// operations, fixed in advance so that a faster program runs the
	// same inputs rather than more of them.
	opSeconds float64
	campaign  *campaignWorkload
	service   *serviceWorkload
}

// workloads are chosen so that one stresses classification
// (cold_s1196), two stress fault simulation on the two kernels' paths
// (auto_s641 full scan, partial_s953 partial scan), and one runs the
// service path. Their parameters make runs with different seeds do the
// same amount of work; README.md gives the measurements behind each.
var workloads = []workload{
	{
		name:      "cold_s1196",
		opSeconds: 10,
		campaign:  &campaignWorkload{circuit: "s1196", la: 8, lb: 16, n: 256},
	},
	{
		name:      "auto_s641",
		opSeconds: 3,
		campaign:  &campaignWorkload{circuit: "s641", auto: true, maxCombos: 3, maxIterations: 2, workers: 1},
	},
	{
		name:      "partial_s953",
		opSeconds: 5.5,
		campaign:  &campaignWorkload{circuit: "s953", partial: true, auto: true, maxCombos: 4, maxIterations: 2, workers: 1},
	},
	{
		name:      "service_s510",
		opSeconds: 1.3,
		service:   &serviceWorkload{circuit: "s510", clients: 2, fsimWorkers: 1},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opsFor is the number of operations a run of seconds performs.
func (w workload) opsFor(seconds int) int {
	n := int(math.Round(float64(seconds) / w.opSeconds))
	if n < 1 {
		n = 1
	}
	return n
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run, or all")
		seed    = fs.Uint64("seed", 1, "workload seed: the campaigns' and jobs' seeds derive from it")
		seconds = fs.Int("seconds", 20, "nominal seconds of work one run measures")
		traced  = fs.Int("trace", 0, "1 makes a traced run that reports the per-layer metrics")
		steady  = fs.Int("steady", 0, "run the workload this many times, seeds seed..seed+k-1, each in its own process, and report each metric's spread against its bound")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "campaignbench: bad arguments (see -h)\n")
		return 2
	}
	if *name == "all" {
		return runAll(*seed, *seconds, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(stderr, "campaignbench: unknown workload %q (want all or one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *steady > 0 {
		return runSteady(w, *seed, *seconds, *steady, stdout, stderr)
	}
	o := runWorkload(w, *seed, *seconds, *traced == 1)
	names, extra := endToEnd, unbounded
	if *traced == 1 {
		names, extra = perLayer, nil
	}
	if !o.report(stdout, stderr, w.name, names, extra) {
		return 1
	}
	return 0
}

// buildDir holds the service state and trace exports, next to the
// binary run.sh builds; it is relative to the repository root.
const buildDir = ".bench_build"

// runWorkload performs one run of w in this process.
func runWorkload(w workload, seed uint64, seconds int, traced bool) *outcome {
	traceDir := filepath.Join(buildDir, "traces")
	if w.campaign != nil {
		return runCampaignWorkload(*w.campaign, w.name, seed, w.opsFor(seconds), traced, traceDir)
	}
	root := filepath.Join(buildDir, fmt.Sprintf("service-%d", os.Getpid()))
	defer os.RemoveAll(root)
	return runServiceWorkload(*w.service, w.name, seed, w.opsFor(seconds), traced, root, traceDir)
}
