// Command limsworker is a fault-simulation fleet worker: it joins a
// limscand coordinator started with -distributed, leases fault-batch
// units, recomputes them from scratch (circuit, tests and fault list
// are pure functions of the unit spec — nothing but the spec crosses
// the wire inbound), heartbeats while simulating, and reports results
// under the lease's fencing epoch. Workers are disposable: SIGKILL one
// mid-unit and the coordinator reassigns the lease after its TTL; run
// zero, one or twelve and every campaign's report is byte-identical.
//
// The worker is also observable standalone: -metrics dumps its
// counter registry (units leased/completed/abandoned, heartbeat RTT
// histogram) at exit, -trace writes its local execution trace — the
// same spans it ships to the coordinator for fleet stitching — and
// -ledger appends a worker-session record to the shared performance
// history. All three flush on SIGTERM through the same idempotent
// teardown the other CLIs use.
//
// Usage:
//
//	limsworker -url http://127.0.0.1:8080
//	limsworker -url http://host:8080 -id $(hostname)-1 -poll 250ms
//	limsworker -url http://host:8080 -metrics - -trace worker.json -ledger perf.jsonl
//
// Exit codes: 0 clean shutdown (SIGINT/SIGTERM), 1 terminal protocol
// or execution error (e.g. this build's circuit disagrees with the
// coordinator's), 2 usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"limscan/internal/cliobs"
	"limscan/internal/dispatch"
	"limscan/internal/errs"
	"limscan/internal/ledger"
)

func main() {
	defer func() {
		if r := recover(); r != nil {
			pe := errs.NewPanic(r, debug.Stack())
			fmt.Fprintf(os.Stderr, "limsworker: internal error: %v\n", pe)
			os.Exit(errs.ExitCode(pe))
		}
	}()
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is main minus the process boundary, mirroring limscand's shape so
// tests can drive the worker through the same entry point.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("limsworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		url   = fs.String("url", "", "coordinator base URL, e.g. http://127.0.0.1:8080 (required)")
		id    = fs.String("id", "", "worker id unique within the fleet (default host-pid)")
		poll  = fs.Duration("poll", 0, "idle re-poll interval override (0 = coordinator's suggestion)")
		quiet = fs.Bool("quiet", false, "suppress per-unit lifecycle lines")
	)
	var of cliobs.Flags
	of.Register(fs, cliobs.Usage{
		Metrics: "write the worker's metrics registry as JSON at exit (- for stdout)",
		Trace:   "write the worker's execution trace as Chrome trace-event JSON at exit (- for stdout)",
		Ledger:  "append a worker-session record to this performance ledger at exit",
	})
	if err := fs.Parse(args); err != nil {
		return errs.ExitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "limsworker: unexpected arguments: %v (all options are flags)\n", fs.Args())
		return errs.ExitUsage
	}
	if *url == "" {
		fmt.Fprintf(stderr, "limsworker: -url is required\n")
		return errs.ExitUsage
	}
	worker := *id
	if worker == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		worker = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	stack, err := of.Open(nil)
	if err != nil {
		fmt.Fprintf(stderr, "limsworker: %v\n", err)
		return errs.ExitCode(err)
	}
	// The deferred closure (not a direct defer of Report) matters: defer
	// evaluates arguments immediately, and Shutdown must run at exit
	// time. Shutdown is idempotent, so the explicit call below and this
	// safety net compose.
	defer func() { cliobs.Report(stderr, "limsworker", stack.Shutdown()) }()

	var log io.Writer = stderr
	if *quiet {
		log = nil
	}
	start := time.Now()
	err = dispatch.RunWorker(ctx, dispatch.WorkerOptions{
		ID:      worker,
		BaseURL: *url,
		Poll:    *poll,
		Log:     log,
		Trace:   stack.Obs.Trace(),
		Obs:     stack.Obs,
	})
	wall := time.Since(start)
	if of.Ledger != "" {
		// JobID doubles as the worker id: a worker session belongs to the
		// fleet, not to any one campaign job.
		lrec := &ledger.Record{
			Kind:        ledger.KindWorker,
			JobID:       worker,
			WallSeconds: wall.Seconds(),
		}
		lrec.Stamp()
		if lerr := ledger.Append(of.Ledger, lrec, nil); lerr != nil {
			fmt.Fprintf(stderr, "limsworker: ledger append failed: %v\n", lerr)
		}
	}
	cliobs.Report(stderr, "limsworker", stack.Shutdown())
	if err != nil {
		fmt.Fprintf(stderr, "limsworker: %v\n", err)
		return errs.ExitCode(err)
	}
	fmt.Fprintf(stderr, "limsworker: %s: shut down\n", worker)
	return 0
}
