// Command limscan runs the paper's limited-scan BIST flow on one
// circuit: generate TS0, run Procedure 2, and report the selected (I,D1)
// pairs, coverage and clock-cycle cost.
//
// Usage:
//
//	limscan -circuit s208 [-la 8 -lb 16 -n 64] [-seed 1] [-desc]
//	limscan -bench path/to/netlist.bench [...]
//	limscan -circuit s420 -auto        # search combinations in Ncyc0 order
//	limscan -circuit s420 -progress -metrics out.json   # observe the campaign
//	limscan -circuit s420 -debug-addr :6060             # /metrics + pprof while running
//	limscan -circuit s298 -profile-dir prof -metrics -  # per-phase pprof files, metrics JSON on stdout
//	limscan -circuit s298 -ledger PERF_ledger.jsonl     # append a performance record (see cmd/perf)
//	limscan -circuit s5378 -checkpoint run.ck           # snapshot every iteration
//	limscan -circuit s5378 -checkpoint run.ck -resume   # continue after a kill
//	limscan -list                      # show the benchmark registry
//
// With -checkpoint, SIGINT/SIGTERM stop the campaign at the next
// boundary, flush the last completed iteration to the snapshot file, and
// exit with status 3; rerunning with -resume continues the campaign and
// produces the identical final report.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"limscan/internal/bmark"
	"limscan/internal/checkpoint"
	"limscan/internal/circuit"
	"limscan/internal/cliobs"
	"limscan/internal/core"
	"limscan/internal/errs"
	"limscan/internal/ledger"
	"limscan/internal/obs"
	"limscan/internal/report"
	"limscan/internal/vectors"
)

// cleanup tears the observability stack down before any early exit;
// fail routes through it so -metrics/-events/-profile-dir outputs are
// flushed even when the run dies. Set once the stack exists.
var cleanup func()

func main() {
	// A panic would make the Go runtime exit with status 2, colliding
	// with the usage-error code; contain it and exit 1 (internal).
	defer func() {
		if r := recover(); r != nil {
			pe := errs.NewPanic(r, debug.Stack())
			fmt.Fprintf(os.Stderr, "limscan: internal error: %v\n", pe)
			os.Exit(errs.ExitCode(pe))
		}
	}()
	var (
		name    = flag.String("circuit", "", "registry circuit name (see -list)")
		path    = flag.String("bench", "", "path to a .bench netlist (alternative to -circuit)")
		la      = flag.Int("la", 8, "test length L_A")
		lb      = flag.Int("lb", 16, "test length L_B")
		n       = flag.Int("n", 64, "tests per length (N)")
		seed    = flag.Uint64("seed", 1, "campaign base seed")
		desc    = flag.Bool("desc", false, "use the descending D1 order 10..1 (Table 7 mode)")
		auto    = flag.Bool("auto", false, "search (LA,LB,N) combinations in Ncyc0 order for complete coverage")
		combos  = flag.Int("maxcombos", 16, "combinations tried with -auto")
		list    = flag.Bool("list", false, "list the benchmark registry and exit")
		verbose = flag.Bool("v", false, "stream per-pair progress and print the phase-span summary")
		export  = flag.String("export", "", "write the selected test program (TS0 + all selected TS(I,D1)) to this file")
		workers = flag.Int("workers", 0, "fault-simulation worker goroutines (0 = GOMAXPROCS; results are identical at any count)")

		ckPath  = flag.String("checkpoint", "", "write campaign snapshots to this file (atomic rewrite; SIGINT/SIGTERM flush the last boundary)")
		ckEvery = flag.Int("checkpoint-every", 1, "iterations between snapshots (the TS0 and final boundaries are always written)")
		resume  = flag.Bool("resume", false, "resume the campaign from the -checkpoint snapshot")

		progress = flag.Bool("progress", false, "stream human-readable campaign progress to stderr")
	)
	var of cliobs.Flags
	of.Register(flag.CommandLine, cliobs.Usage{
		Metrics:     "write the campaign metrics registry as JSON to this file at exit (\"-\" for stdout)",
		Events:      "write the structured campaign event stream (JSON lines) to this file",
		DebugAddr:   "serve /metrics (Prometheus text) and /debug/pprof on this address while the campaign runs",
		Trace:       "record an execution trace (phases, fsim runs, per-worker batches, merges, checkpoints) and write Chrome trace-event JSON to this file; analyze with `perf trace` or load in Perfetto",
		ProfileDir:  "capture per-phase CPU/heap/alloc pprof profiles into this directory",
		SampleEvery: "runtime telemetry sampling cadence (heap, goroutines, GC gauges)",
		Ledger:      "append this run's performance record to this JSON-lines ledger (see cmd/perf)",
	})
	flag.Parse()
	if flag.NArg() > 0 {
		failUsage(fmt.Errorf("unexpected arguments: %v (all options are flags)", flag.Args()))
	}

	if *list {
		for _, nm := range bmark.Names() {
			c, err := bmark.Load(nm)
			if err != nil {
				fail(err)
			}
			s := c.Stats()
			fmt.Printf("%-8s %4d PI  %4d PO  %5d FF  %6d gates  depth %d\n",
				nm, s.PIs, s.POs, s.FFs, s.Gates, s.Depth)
		}
		return
	}

	switch {
	case *resume && *ckPath == "":
		failUsage(fmt.Errorf("-resume requires -checkpoint"))
	case *auto && (*ckPath != "" || *resume):
		failUsage(fmt.Errorf("-checkpoint/-resume apply to single campaigns, not -auto searches"))
	case *ckEvery < 1:
		failUsage(fmt.Errorf("-checkpoint-every must be >= 1 (got %d)", *ckEvery))
	case *workers < 0:
		failUsage(fmt.Errorf("-workers must be >= 0 (got %d; zero means GOMAXPROCS)", *workers))
	}
	c := loadCircuit(*name, *path)
	var d1 []int
	if *desc {
		d1 = core.DescendingD1()
	}

	// One observer feeds every surface: the -v / -progress narration,
	// the -events JSON-lines record, the -metrics snapshot, the
	// -debug-addr exposition, the -profile-dir captures, the -trace file
	// and the -ledger record share a single code path.
	var narrate obs.Sink
	if *verbose || *progress {
		narrate = obs.NewProgress(os.Stderr)
	}
	stack, err := of.Open(narrate)
	if err != nil {
		fail(err)
	}
	o := stack.Obs
	// Every exit path flushes the stack: the normal return below, the
	// interrupt's exit(3), and fail's error exits.
	cleanup = func() { cliobs.Report(os.Stderr, "limscan", stack.Shutdown()) }

	// SIGINT/SIGTERM cancel the campaign context; the runner flushes the
	// last completed boundary to the checkpoint before unwinding.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	r := core.NewRunner(c)
	r.SetObserver(o)
	r.SetWorkers(*workers)
	start := time.Now()

	var res *core.Result
	if *auto {
		out, err := r.FirstComplete(core.CampaignOptions{
			Base:      core.Config{Seed: *seed, D1Order: d1, Workers: *workers},
			MaxCombos: *combos,
		})
		if err != nil {
			fail(err)
		}
		res = out.Best
		if out.Chosen != nil {
			res = out.Chosen
		}
		fmt.Printf("searched %d combinations\n", out.Tried)
	} else {
		cfg := core.Config{LA: *la, LB: *lb, N: *n, Seed: *seed, D1Order: d1, Workers: *workers}
		var ck *core.CheckpointOptions
		if *ckPath != "" {
			ck = &core.CheckpointOptions{Path: *ckPath, Every: *ckEvery}
		}
		var err error
		if *resume {
			snap, lerr := checkpoint.Load(*ckPath)
			if lerr != nil {
				fail(fmt.Errorf("resume: %w", lerr))
			}
			res, err = r.ResumeWithContext(ctx, cfg, snap, ck)
		} else {
			res, err = r.RunWithContext(ctx, cfg, ck)
		}
		if err != nil {
			var ie *core.InterruptedError
			if errors.As(err, &ie) {
				fmt.Fprintf(os.Stderr, "limscan: %v\n", ie)
				if ie.Path != "" {
					fmt.Fprintf(os.Stderr, "limscan: rerun with -resume to continue\n")
				}
				// An interrupted run still flushes its observability
				// (partial metrics and profiles are exactly what you want
				// after killing a hung campaign) but appends no ledger
				// record: partial timings would poison perf comparisons.
				cleanup()
				os.Exit(3)
			}
			fail(err)
		}
	}

	if err := report.WriteCampaign(os.Stdout, c, res); err != nil {
		fail(err)
	}
	wall := time.Since(start)
	fmt.Fprintf(os.Stderr, "limscan: done in %s\n", wall.Round(time.Millisecond))
	if *verbose || *progress {
		fmt.Fprintf(os.Stderr, "phases:\n")
		for _, p := range o.PhaseSummary() {
			fmt.Fprintf(os.Stderr, "  %-12s %6d run(s)  %s\n", p.Name, p.Count, p.Total.Round(time.Microsecond))
		}
	}
	// Tear the stack down before reading its numbers: the sampler's
	// final sample and the metrics dump land first, so the ledger record
	// below sees the run's true peaks.
	cleanup()
	if of.Metrics != "" && of.Metrics != "-" {
		fmt.Printf("metrics written to %s\n", of.Metrics)
	}
	if of.Trace != "" && of.Trace != "-" {
		fmt.Printf("trace written to %s (analyze with `perf trace`, or load in Perfetto)\n", of.Trace)
	}
	if stack.EventsFile != nil {
		fmt.Printf("events written to %s\n", of.Events)
	}
	if of.Ledger != "" {
		rec := &ledger.Record{
			Kind:        ledger.KindCampaign,
			Circuit:     c.Name,
			ParamsHash:  r.ParamsHash(res.Config),
			Seed:        *seed,
			Workers:     *workers,
			Faults:      res.TotalFaults,
			Detected:    res.Detected,
			Coverage:    res.Coverage(),
			TotalCycles: res.TotalCycles,
			WallSeconds: wall.Seconds(),
		}
		rec.FromObs(o)
		rec.Stamp()
		if err := ledger.Append(of.Ledger, rec, nil); err != nil {
			fail(err)
		}
		fmt.Printf("ledger record appended to %s\n", of.Ledger)
	}
	if *export != "" {
		if err := exportProgram(*export, c, res); err != nil {
			fail(err)
		}
		fmt.Printf("test program written to %s\n", *export)
	}
	if res.CheckpointDegraded {
		// The campaign and report are complete, but the final snapshot
		// write failed after retries: the checkpoint file is stale. The
		// distinct exit code is the contract that makes scripts notice.
		fmt.Fprintf(os.Stderr, "limscan: WARNING: completed in checkpoint-degraded mode; %s is stale\n", *ckPath)
		os.Exit(errs.ExitDegraded)
	}
}

// exportProgram regenerates the full selected test program — TS0 followed
// by every selected TS(I,D1) — and writes it in the vectors format.
func exportProgram(path string, c *circuit.Circuit, res *core.Result) error {
	cfg := res.Config
	prog := &vectors.Program{Circuit: c.Name, NSV: c.NumSV(), NPI: c.NumPI()}
	ts0 := core.GenerateTS0(c, cfg)
	prog.Tests = append(prog.Tests, ts0...)
	for _, p := range res.Pairs {
		prog.Tests = append(prog.Tests, core.InsertLimitedScans(c, ts0, p.I, p.D1, cfg)...)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := vectors.Write(f, prog); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadCircuit(name, path string) *circuit.Circuit {
	switch {
	case name != "" && path != "":
		failUsage(fmt.Errorf("use either -circuit or -bench, not both"))
	case name != "":
		c, err := bmark.Load(name)
		if err != nil {
			failUsage(err)
		}
		return c
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			failUsage(err)
		}
		defer f.Close()
		c, err := parseBench(path, f)
		if err != nil {
			failUsage(err)
		}
		return c
	}
	failUsage(fmt.Errorf("one of -circuit or -bench is required (try -list)"))
	return nil
}

// fail reports err and exits with the code its kind maps to (see
// internal/errs: 1 internal, 2 usage/input, 3 interrupted, 4 degraded),
// flushing the observability stack first.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "limscan: %v\n", err)
	if cleanup != nil {
		cleanup()
	}
	os.Exit(errs.ExitCode(err))
}

// failUsage is fail for command-line mistakes: always exit 2.
func failUsage(err error) {
	fail(errs.Wrap(errs.Input, err))
}
