// Command perf reads the performance ledger (see internal/ledger) and
// answers the three questions a perf history exists for: what runs do we
// have (list), how do two runs compare (diff), and did this run regress
// past tolerance (check — the CI gate). A fourth subcommand, trace,
// leaves the ledger behind and analyzes an execution trace recorded with
// -trace (see internal/trace): per-worker utilization, merge-barrier
// stalls, the Amdahl serial fraction, and a one-screen diagnosis of what
// limits scaling. A fifth, fleet, does the same for a stitched
// multi-process fleet trace (the /v1/dispatch/fleet/trace download):
// per-worker utilization and a dominant-limiter verdict — straggler
// worker, reassignment storm, coordinator merge stall, or undersized
// fleet.
//
// Usage:
//
//	perf list  [-ledger PERF_ledger.jsonl] [-kind campaign] [-circuit s298]
//	perf diff  [-ledger ...] [-kind ...] [-circuit ...] [A B]
//	perf check [-ledger ...] [-kind ...] [-circuit ...] -baseline perf_baseline.json
//	perf trace [-json] trace.json
//	perf fleet [-json] [-ledger PERF_ledger.jsonl] fleet_trace.json
//
// diff compares records A and B by non-negative index into the filtered
// history (0 is oldest); with no arguments it compares the last two.
// check gates the latest matching record against the baseline file and
// exits 1 if any metric crosses its tolerance — the nonzero exit is the
// whole point: `make perfsmoke` fails when the code gets slower.
//
// Exit codes: 0 ok, 1 regression (or internal error), 2 usage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"limscan/internal/ledger"
	"limscan/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "list":
		cmdList(args)
	case "diff":
		cmdDiff(args)
	case "check":
		cmdCheck(args)
	case "trace":
		cmdTrace(args)
	case "fleet":
		cmdFleet(args)
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "perf: unknown command %q\n", cmd)
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  perf list  [-ledger FILE] [-kind K] [-circuit C]
  perf diff  [-ledger FILE] [-kind K] [-circuit C] [A B]
  perf check [-ledger FILE] [-kind K] [-circuit C] -baseline FILE
  perf trace [-json] TRACEFILE
  perf fleet [-json] [-ledger FILE] TRACEFILE
`)
	os.Exit(2)
}

// commonFlags returns the flag set every subcommand shares.
func commonFlags(cmd string) (*flag.FlagSet, *string, *string, *string) {
	fs := flag.NewFlagSet("perf "+cmd, flag.ExitOnError)
	led := fs.String("ledger", "PERF_ledger.jsonl", "performance ledger to read")
	kind := fs.String("kind", "", "filter records by kind (campaign, faultsim, service, worker)")
	circuit := fs.String("circuit", "", "filter records by circuit")
	return fs, led, kind, circuit
}

// load reads the ledger, reports skipped lines on stderr, and applies
// the kind/circuit filter.
func load(path, kind, circuit string) []ledger.Record {
	recs, skipped, err := ledger.Read(path)
	if err != nil {
		fail(err)
	}
	for _, s := range skipped {
		fmt.Fprintf(os.Stderr, "perf: warning: %s: %v\n", path, s)
	}
	return ledger.Filter(recs, kind, circuit)
}

func cmdList(args []string) {
	fs, led, kind, circuit := commonFlags("list")
	_ = fs.Parse(args)
	if fs.NArg() > 0 {
		failUsage(fmt.Errorf("list takes no arguments"))
	}
	recs := load(*led, *kind, *circuit)
	if len(recs) == 0 {
		fmt.Println("no matching records")
		return
	}
	fmt.Printf("%-3s  %-20s  %-9s  %-8s  %-8s  %10s  %9s  %12s\n",
		"#", "time", "kind", "circuit", "params", "wall_s", "coverage", "peak_heap")
	for i, r := range recs {
		fmt.Printf("%-3d  %-20s  %-9s  %-8s  %-8s  %10.3f  %9.4f  %12d\n",
			i, r.Time.Format(time.DateTime), r.Kind, r.Circuit, r.ParamsHash,
			r.WallSeconds, r.Coverage, r.PeakHeapBytes)
	}
}

func cmdDiff(args []string) {
	fs, led, kind, circuit := commonFlags("diff")
	_ = fs.Parse(args)
	recs := load(*led, *kind, *circuit)
	var a, b *ledger.Record
	switch fs.NArg() {
	case 0:
		if len(recs) < 2 {
			failUsage(fmt.Errorf("need at least 2 matching records to diff (have %d)", len(recs)))
		}
		a, b = &recs[len(recs)-2], &recs[len(recs)-1]
	case 2:
		a = pick(recs, fs.Arg(0))
		b = pick(recs, fs.Arg(1))
	default:
		failUsage(fmt.Errorf("diff takes zero or two record indexes"))
	}
	if a.ParamsHash != b.ParamsHash {
		fmt.Fprintf(os.Stderr, "perf: warning: parameter hashes differ (%s vs %s) — the runs did different work\n",
			a.ParamsHash, b.ParamsHash)
	}
	fmt.Printf("A: %s %s/%s  B: %s %s/%s\n",
		a.Time.Format(time.DateTime), a.Kind, a.Circuit,
		b.Time.Format(time.DateTime), b.Kind, b.Circuit)
	fmt.Printf("%-28s  %14s  %14s  %10s  %7s\n", "metric", "A", "B", "delta", "ratio")
	for _, row := range ledger.Diff(a, b) {
		switch {
		case !row.PresentA:
			fmt.Printf("%-28s  %14s  %14g  %10s  %7s\n", row.Name, "-", row.B, "-", "-")
		case !row.PresentB:
			fmt.Printf("%-28s  %14g  %14s  %10s  %7s\n", row.Name, row.A, "-", "-", "-")
		default:
			fmt.Printf("%-28s  %14g  %14g  %+10.4g  %6.3fx\n",
				row.Name, row.A, row.B, row.Delta(), row.Ratio())
		}
	}
}

// pick resolves one non-negative index argument against the history.
func pick(recs []ledger.Record, arg string) *ledger.Record {
	i, err := strconv.Atoi(arg)
	if err != nil || i < 0 {
		failUsage(fmt.Errorf("record index must be a non-negative integer (got %q; see perf list)", arg))
	}
	if i >= len(recs) {
		failUsage(fmt.Errorf("record index %d out of range (have %d matching records)", i, len(recs)))
	}
	return &recs[i]
}

func cmdCheck(args []string) {
	fs, led, kind, circuit := commonFlags("check")
	basePath := fs.String("baseline", "", "baseline file of per-metric tolerances (required)")
	_ = fs.Parse(args)
	if fs.NArg() > 0 {
		failUsage(fmt.Errorf("check takes no arguments"))
	}
	if *basePath == "" {
		failUsage(fmt.Errorf("check requires -baseline"))
	}
	base, err := ledger.LoadBaseline(*basePath)
	if err != nil {
		failUsage(err)
	}
	// The baseline's own kind/circuit scope applies unless the flags
	// narrow further: a baseline for campaign/s298 never silently gates a
	// faultsim session.
	if *kind == "" {
		*kind = base.Kind
	}
	if *circuit == "" {
		*circuit = base.Circuit
	}
	recs := load(*led, *kind, *circuit)
	r := ledger.Latest(recs, "", "")
	if r == nil {
		failUsage(fmt.Errorf("no matching record to check (kind=%q circuit=%q)", *kind, *circuit))
	}
	violations := base.Check(r)
	fmt.Printf("checking %s %s/%s (params %s) against %s: %d metric(s)\n",
		r.Time.Format(time.DateTime), r.Kind, r.Circuit, r.ParamsHash, *basePath, len(base.Metrics))
	if len(violations) == 0 {
		fmt.Println("PASS: all metrics within tolerance")
		return
	}
	for _, v := range violations {
		fmt.Printf("REGRESSION: %s\n", v)
	}
	os.Exit(1)
}

func cmdTrace(args []string) {
	fs := flag.NewFlagSet("perf trace", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the analysis as JSON instead of the report")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		failUsage(fmt.Errorf("trace takes exactly one trace file (recorded with limscan/faultsim -trace)"))
	}
	m, err := trace.ParseFile(fs.Arg(0))
	if err != nil {
		failUsage(err)
	}
	a := trace.Analyze(m)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(a); err != nil {
			fail(err)
		}
		return
	}
	a.WriteReport(os.Stdout)
}

func cmdFleet(args []string) {
	fs := flag.NewFlagSet("perf fleet", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the analysis as JSON instead of the report")
	led := fs.String("ledger", "", "optional run ledger; the latest record with dispatch stats is shown for context")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		failUsage(fmt.Errorf("fleet takes exactly one stitched fleet trace file (GET /v1/dispatch/fleet/trace)"))
	}
	m, err := trace.ParseFile(fs.Arg(0))
	if err != nil {
		failUsage(err)
	}
	a := trace.AnalyzeFleet(m)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(a); err != nil {
			fail(err)
		}
		return
	}
	if *led != "" {
		recs, skipped, err := ledger.Read(*led)
		if err != nil {
			fail(err)
		}
		for _, s := range skipped {
			fmt.Fprintf(os.Stderr, "perf: warning: %s: %v\n", *led, s)
		}
		for i := len(recs) - 1; i >= 0; i-- {
			if d := recs[i].Dispatch; d != nil {
				fmt.Printf("ledger: %s %s/%s — %d units (%d local), %d leases, %d expired, %d fenced, %d/%d workers joined/lost\n",
					recs[i].Time.Format(time.DateTime), recs[i].Kind, recs[i].Circuit,
					d.Units, d.LocalUnits, d.Leases, d.Expired, d.Fenced,
					d.WorkersJoined, d.WorkersLost)
				break
			}
		}
	}
	a.WriteReport(os.Stdout)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perf: %v\n", err)
	os.Exit(1)
}

func failUsage(err error) {
	fmt.Fprintf(os.Stderr, "perf: %v\n", err)
	os.Exit(2)
}
