// Command faultsim is a standalone stuck-at fault simulator for scan
// tests: it generates (or is told) a random test session and reports
// fault coverage, optionally listing undetected faults. No flag picks
// the simulation kernel: the simulator chooses it per session, and the
// report is the same either way.
//
// Usage:
//
//	faultsim -circuit s298 -n 32 -len 16 [-seed 1] [-undetected] [-classify]
//	faultsim -circuit s1423 -progress -metrics out.json
//	faultsim -circuit s1423 -debug-addr :6060             # /metrics + pprof while running
//	faultsim -circuit s1423 -profile-dir prof             # session CPU/heap/alloc profiles
//	faultsim -circuit s1423 -ledger PERF_ledger.jsonl     # append a performance record (see cmd/perf)
//	faultsim -circuit s35932 -checkpoint run.ck           # snapshot per fault chunk
//	faultsim -circuit s35932 -checkpoint run.ck -resume   # continue after a kill
//
// With -checkpoint the fault list is simulated in chunks and a snapshot
// is written after each; SIGINT/SIGTERM flush the last completed chunk
// and exit with status 3, and -resume continues to the identical report.
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

	"limscan/internal/atpg"
	"limscan/internal/bmark"
	"limscan/internal/checkpoint"
	"limscan/internal/cliobs"
	"limscan/internal/core"
	"limscan/internal/errs"
	"limscan/internal/fault"
	"limscan/internal/fsim"
	"limscan/internal/ledger"
	"limscan/internal/obs"
	"limscan/internal/report"
	"limscan/internal/stafan"
)

// cleanup tears the observability stack down before any early exit; set
// once the stack exists.
var cleanup func()

// fail reports err and exits with its errs code, flushing the
// observability stack first.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "faultsim: %v\n", err)
	if cleanup != nil {
		cleanup()
	}
	os.Exit(errs.ExitCode(err))
}

func main() {
	// A panic would make the Go runtime exit with status 2, colliding
	// with the usage-error code; contain it and exit 1 (internal).
	defer func() {
		if r := recover(); r != nil {
			pe := errs.NewPanic(r, debug.Stack())
			fmt.Fprintf(os.Stderr, "faultsim: internal error: %v\n", pe)
			os.Exit(errs.ExitCode(pe))
		}
	}()
	var (
		name       = flag.String("circuit", "", "registry circuit name")
		n          = flag.Int("n", 32, "number of random tests")
		length     = flag.Int("len", 16, "vectors per test")
		seed       = flag.Uint64("seed", 1, "random seed")
		undetected = flag.Bool("undetected", false, "list undetected faults")
		classify   = flag.Bool("classify", false, "ATPG-classify undetected faults")
		estimate   = flag.Bool("estimate", false, "print STAFAN detection-probability estimates for undetected faults")
		trans      = flag.Bool("trans", false, "simulate the transition (gross-delay) fault universe instead of stuck-at")
		progress   = flag.Bool("progress", false, "stream per-batch progress to stderr")
		workers    = flag.Int("workers", 0, "fault-simulation worker goroutines (0 = GOMAXPROCS; results are identical at any count)")

		ckPath  = flag.String("checkpoint", "", "write fault-chunk snapshots to this file (atomic rewrite; SIGINT/SIGTERM flush the last chunk)")
		ckEvery = flag.Int("checkpoint-every", 1, "fault chunks between snapshots")
		ckChunk = flag.Int("checkpoint-chunk", 0, "faults per checkpoint chunk (0 = 16 batches' worth)")
		resume  = flag.Bool("resume", false, "resume the session from the -checkpoint snapshot")
	)
	var of cliobs.Flags
	of.Register(flag.CommandLine, cliobs.Usage{
		Metrics:     "write the simulation metrics registry as JSON to this file at exit (\"-\" for stdout)",
		DebugAddr:   "serve /metrics (Prometheus text) and /debug/pprof on this address while the session runs",
		Trace:       "record an execution trace (session, per-worker batches, merges, checkpoints) and write Chrome trace-event JSON to this file; analyze with `perf trace` or load in Perfetto",
		ProfileDir:  "capture the session's CPU/heap/alloc pprof profiles into this directory",
		SampleEvery: "runtime telemetry sampling cadence (heap, goroutines, GC gauges)",
		Ledger:      "append this session's performance record to this JSON-lines ledger (see cmd/perf)",
	})
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "faultsim: unexpected arguments: %v (all options are flags)\n", flag.Args())
		os.Exit(2)
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "faultsim: -circuit is required")
		os.Exit(2)
	}
	if *resume && *ckPath == "" {
		fmt.Fprintln(os.Stderr, "faultsim: -resume requires -checkpoint")
		os.Exit(errs.ExitUsage)
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "faultsim: -workers must be >= 0 (got %d; zero means GOMAXPROCS)\n", *workers)
		os.Exit(errs.ExitUsage)
	}
	c, err := bmark.Load(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faultsim: %v\n", err)
		os.Exit(errs.ExitUsage)
	}

	// A session of 2n tests, half of each length (reusing the TS0
	// generator with LA = LB = length is fine for a plain session; use
	// n/2 each to honor -n).
	cfg := core.Config{LA: *length, LB: *length, N: (*n + 1) / 2, Seed: *seed}
	tests := core.GenerateTS0(c, cfg)
	if len(tests) > *n {
		tests = tests[:*n]
	}

	var reps []fault.Fault
	total := 0
	if *trans {
		reps = fault.TransitionUniverse(c)
		total = len(reps)
	} else {
		var sizes []int
		reps, sizes = fault.Collapse(c, fault.Universe(c))
		for _, s := range sizes {
			total += s
		}
	}
	fs := fault.NewSet(reps)
	s := fsim.New(c)
	var narrate obs.Sink
	if *progress {
		p := obs.NewProgress(os.Stderr)
		p.ShowBatches = true
		narrate = p
	}
	stack, err := of.Open(narrate)
	if err != nil {
		fail(err)
	}
	o := stack.Obs
	cleanup = func() { cliobs.Report(os.Stderr, "faultsim", stack.Shutdown()) }

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	start := time.Now()
	opts := fsim.Options{Obs: o, EmitBatchEvents: *progress, Workers: *workers, Trace: o.Trace()}
	var st fsim.RunStats
	// One "session" span brackets the whole simulation: it is what gives
	// -profile-dir a capture window (fsim.Run itself records only a run
	// span) and the phase summary a single headline number.
	span := o.StartPhase("session")
	if *ckPath != "" {
		ck := fsim.SessionCheckpoint{
			Meta: checkpoint.Meta{
				Mode:        checkpoint.ModeFaultSim,
				Circuit:     c.Name,
				CircuitHash: checkpoint.CircuitHash(c),
				PlanLen:     c.NumSV(),
				LA:          *length,
				LB:          *length,
				N:           len(tests),
				Seed:        *seed,
				Transition:  *trans,
			},
			ChunkFaults: *ckChunk,
			Checkpoint:  checkpoint.Options{Path: *ckPath, Every: *ckEvery},
		}
		var snap *checkpoint.Snapshot
		if *resume {
			snap, err = checkpoint.Load(*ckPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "faultsim: resume: %v\n", err)
				os.Exit(errs.ExitCode(err))
			}
		}
		st, err = s.RunCheckpointed(ctx, tests, fs, snap, opts, ck)
	} else {
		opts.Ctx = ctx
		st, err = s.Run(tests, fs, opts)
	}
	span.End()
	if err != nil {
		var ie *checkpoint.InterruptedError
		if errors.As(err, &ie) {
			fmt.Fprintf(os.Stderr, "faultsim: %v\n", ie)
			if ie.Path != "" {
				fmt.Fprintf(os.Stderr, "faultsim: rerun with -resume to continue\n")
			}
			// Flush partial observability, but append no ledger record:
			// partial timings would poison perf comparisons.
			if cleanup != nil {
				cleanup()
			}
			os.Exit(3)
		}
		fail(err)
	}
	elapsed := time.Since(start)

	if *trans {
		fmt.Printf("circuit %s: %d transition faults\n", c.Name, len(reps))
	} else {
		fmt.Printf("circuit %s: %d collapsed faults (%d uncollapsed)\n", c.Name, len(reps), total)
	}
	fmt.Printf("session: %d tests, %s clock cycles\n", len(tests), report.Cycles(st.Cycles))
	fmt.Printf("detected %d/%d (%.2f%%)\n",
		st.Detected, len(reps), float64(st.Detected)/float64(len(reps))*100)
	fmt.Fprintf(os.Stderr, "faultsim: done in %s (%.0f cycles/s simulated)\n",
		elapsed.Round(time.Millisecond), float64(st.Cycles)/elapsed.Seconds())
	if o != nil {
		fmt.Printf("detection sites: %d at POs, %d at limited scan-out, %d at complete scan-out\n",
			st.DetectedAtPO, st.DetectedAtLimitedScan, st.DetectedAtScanOut)
	}
	// Tear the stack down before reading its numbers: the sampler's
	// final sample and the metrics dump land first, so the ledger record
	// below sees the session's true peaks.
	cleanup()
	if of.Metrics != "" && of.Metrics != "-" {
		fmt.Printf("metrics written to %s\n", of.Metrics)
	}
	if of.Trace != "" && of.Trace != "-" {
		fmt.Printf("trace written to %s (analyze with `perf trace`, or load in Perfetto)\n", of.Trace)
	}
	if of.Ledger != "" {
		rec := &ledger.Record{
			Kind:    ledger.KindFaultSim,
			Circuit: c.Name,
			ParamsHash: ledger.HashParams(map[string]any{
				"n": len(tests), "len": *length, "seed": *seed, "trans": *trans,
			}),
			Seed:        *seed,
			Workers:     *workers,
			Faults:      len(reps),
			Detected:    st.Detected,
			Coverage:    float64(st.Detected) / float64(len(reps)),
			TotalCycles: st.Cycles,
			WallSeconds: elapsed.Seconds(),
		}
		rec.FromObs(o)
		rec.Stamp()
		if err := ledger.Append(of.Ledger, rec, nil); err != nil {
			fail(err)
		}
		fmt.Printf("ledger record appended to %s\n", of.Ledger)
	}

	if *classify {
		eng := atpg.New(c)
		sum := atpg.Classify(eng, fs)
		fmt.Printf("ATPG: %d testable, %d untestable, %d aborted\n",
			sum.Testable, sum.Untestable, sum.Aborted)
		den := len(reps) - sum.Untestable
		if den > 0 {
			fmt.Printf("coverage of detectable faults: %.2f%%\n",
				float64(fs.Count(fault.Detected))/float64(den)*100)
		}
	}
	if *undetected || *estimate {
		var ta *stafan.Analysis
		if *estimate {
			ta = stafan.Analyze(c, 64*256, *seed)
		}
		for i, f := range reps {
			if fs.State[i] == fault.Undetected || fs.State[i] == fault.Aborted {
				if ta != nil {
					fmt.Printf("  undetected: %-30s p(detect/pattern) ~ %.2e\n",
						f.Pretty(c), ta.DetectProb(f))
				} else {
					fmt.Printf("  undetected: %s\n", f.Pretty(c))
				}
			}
		}
	}
	if st.CheckpointDegraded {
		// The report is complete, but the final snapshot write failed
		// after retries: the checkpoint file is stale.
		fmt.Fprintf(os.Stderr, "faultsim: WARNING: completed in checkpoint-degraded mode; %s is stale\n", *ckPath)
		os.Exit(errs.ExitDegraded)
	}
}
