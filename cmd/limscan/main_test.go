package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// bin is the limscan binary under test, built once for the package.
var bin string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "limscan-test-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "limscan")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building limscan: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the binary and returns stdout, stderr and the exit code.
func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var so, se bytes.Buffer
	cmd.Stdout, cmd.Stderr = &so, &se
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return so.String(), se.String(), code
}

// TestGolden pins the report body byte for byte. Timing and progress go
// to stderr, so stdout is a pure function of the flags; regenerate with
// `go test ./cmd/limscan -run TestGolden -update` after an intentional
// output change.
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"s27", []string{"-circuit", "s27", "-la", "10", "-lb", "5", "-n", "2", "-seed", "17"}},
		{"s298", []string{"-circuit", "s298", "-la", "10", "-lb", "5", "-n", "2", "-seed", "5"}},
		{"s298_desc", []string{"-circuit", "s298", "-la", "10", "-lb", "5", "-n", "2", "-seed", "5", "-desc"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := run(t, tc.args...)
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr)
			}
			if strings.Contains(stdout, " in ") {
				t.Errorf("stdout contains timing text:\n%s", stdout)
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(stdout), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if stdout != string(want) {
				t.Errorf("output differs from %s:\ngot:\n%s\nwant:\n%s", golden, stdout, want)
			}
		})
	}
}

// TestCLIErrors: every usage error must land on stderr with the
// contract's usage exit code (2) and leave stdout empty.
func TestCLIErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}},
		{"positional args", []string{"-circuit", "s27", "stray", "args"}},
		{"no circuit", nil},
		{"both circuit and bench", []string{"-circuit", "s27", "-bench", "x.bench"}},
		{"unknown circuit", []string{"-circuit", "nope"}},
		{"missing bench file", []string{"-bench", "/no/such/file.bench"}},
		{"resume without checkpoint", []string{"-circuit", "s27", "-resume"}},
		{"auto with checkpoint", []string{"-circuit", "s27", "-auto", "-checkpoint", "x.ck"}},
		{"auto with resume", []string{"-circuit", "s27", "-auto", "-checkpoint", "x.ck", "-resume"}},
		{"checkpoint-every zero", []string{"-circuit", "s27", "-checkpoint", "x.ck", "-checkpoint-every", "0"}},
		{"negative workers", []string{"-circuit", "s27", "-workers", "-2"}},
		{"resume missing file", []string{"-circuit", "s27", "-checkpoint", "/no/such/ck.json", "-resume"}},
		{"malformed int flag", []string{"-circuit", "s27", "-la", "ten"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := run(t, tc.args...)
			if code != 2 {
				t.Errorf("exit %d, want 2 (usage)", code)
			}
			if stderr == "" {
				t.Errorf("empty stderr, want a diagnostic")
			}
			if stdout != "" {
				t.Errorf("stdout not empty:\n%s", stdout)
			}
		})
	}
}

// TestKillResumeEquivalence is the e2e half of the resume gate: a real
// limscan process is interrupted with SIGINT every time the checkpoint
// file advances, restarted with -resume, and the report the chain
// finally prints must be byte-identical to an uninterrupted run's.
//
// The kill is a deliberate race — a real signal against a real process —
// so on a fast host a whole campaign can finish before the SIGINT lands
// (the first hop has only milliseconds of work left after its first
// snapshot). An uninterrupted completion proves nothing about the
// resume path either way, so the chain retries with a fresh checkpoint
// until a kill actually lands; a broken signal handler still fails
// loudly whenever a signal does land mid-run (wrong exit code), and a
// host where no signal ever lands skips rather than reporting a fake
// pass or fail (the in-process equivalence chain in internal/core
// covers every boundary deterministically regardless).
func TestKillResumeEquivalence(t *testing.T) {
	base := []string{"-circuit", "s298", "-la", "10", "-lb", "5", "-n", "2", "-seed", "5"}
	straight, stderr, code := run(t, base...)
	if code != 0 {
		t.Fatalf("straight run exit %d: %s", code, stderr)
	}

	const attempts = 8
	for attempt := 0; attempt < attempts; attempt++ {
		report, interrupted := killResumeChain(t, base)
		if report != straight {
			t.Fatalf("attempt %d (%d interruptions): report differs from uninterrupted run:\ngot:\n%s\nwant:\n%s",
				attempt, interrupted, report, straight)
		}
		if interrupted > 0 {
			return
		}
	}
	t.Skipf("host too fast: %d kill attempts all completed before SIGINT landed (reports verified identical; in-process resume equivalence is covered by internal/core)", attempts)
}

// killResumeChain runs one SIGINT/resume chain against a fresh
// checkpoint file and returns the final report and how many hops were
// actually interrupted.
func killResumeChain(t *testing.T, base []string) (string, int) {
	t.Helper()
	ck := filepath.Join(t.TempDir(), "ck.json")
	interrupted := 0
	for hop := 0; hop < 60; hop++ {
		args := append(append([]string{}, base...), "-checkpoint", ck)
		if hop > 0 {
			args = append(args, "-resume")
		}
		var prev time.Time
		if fi, err := os.Stat(ck); err == nil {
			prev = fi.ModTime()
		}
		cmd := exec.Command(bin, args...)
		var so, se bytes.Buffer
		cmd.Stdout, cmd.Stderr = &so, &se
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// SIGINT as soon as the snapshot advances: every hop completes at
		// least one new boundary before dying, so the chain always makes
		// progress and terminates.
		done := make(chan struct{})
		go func() {
			for {
				select {
				case <-done:
					return
				default:
				}
				if fi, err := os.Stat(ck); err == nil && fi.ModTime().After(prev) {
					_ = cmd.Process.Signal(os.Interrupt)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
		err := cmd.Wait()
		close(done)
		if err == nil {
			return so.String(), interrupted
		}
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatal(err)
		}
		if ee.ExitCode() != 3 {
			t.Fatalf("hop %d: exit %d, stderr:\n%s", hop, ee.ExitCode(), se.String())
		}
		if so.Len() != 0 {
			t.Fatalf("hop %d: interrupted run printed a report:\n%s", hop, so.String())
		}
		if !strings.Contains(se.String(), "interrupted") {
			t.Fatalf("hop %d: stderr lacks interruption notice:\n%s", hop, se.String())
		}
		interrupted++
	}
	t.Fatal("campaign never completed across 60 kill/resume hops")
	return "", 0
}

// TestResumeOfFinishedRun: resuming after a clean finish redoes nothing
// and reprints the identical report (what makes kill-timing races in the
// test above harmless also holds end to end).
func TestResumeOfFinishedRun(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	args := []string{"-circuit", "s27", "-la", "10", "-lb", "5", "-n", "2", "-seed", "17", "-checkpoint", ck}
	first, stderr, code := run(t, args...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	again, stderr, code := run(t, append(args, "-resume")...)
	if code != 0 {
		t.Fatalf("resume exit %d: %s", code, stderr)
	}
	if again != first {
		t.Errorf("resumed-after-finish report differs:\ngot:\n%s\nwant:\n%s", again, first)
	}
}

// TestResumeRejectsChangedParameters: the config hash must refuse a
// snapshot taken under different campaign parameters.
func TestResumeRejectsChangedParameters(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	if _, stderr, code := run(t, "-circuit", "s27", "-la", "10", "-lb", "5", "-n", "2", "-seed", "17", "-checkpoint", ck); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	cases := [][]string{
		{"-circuit", "s27", "-la", "12", "-lb", "5", "-n", "2", "-seed", "17"},          // LA changed
		{"-circuit", "s27", "-la", "10", "-lb", "5", "-n", "2", "-seed", "18"},          // seed changed
		{"-circuit", "s344", "-la", "10", "-lb", "5", "-n", "2", "-seed", "17"},         // circuit changed
		{"-circuit", "s27", "-la", "10", "-lb", "5", "-n", "2", "-seed", "17", "-desc"}, // D1 order changed
	}
	for _, args := range cases {
		stdout, stderr, code := run(t, append(args, "-checkpoint", ck, "-resume")...)
		if code == 0 {
			t.Errorf("resume under %v succeeded, want refusal; stdout:\n%s", args, stdout)
		}
		if stderr == "" {
			t.Errorf("resume under %v: empty stderr", args)
		}
	}
}

// TestFlagSurface pins the -h output — every flag name, default and
// usage string — byte for byte against testdata/help.golden.
func TestFlagSurface(t *testing.T) {
	cmd := exec.Command(bin, "-h")
	cmd.Args[0] = "limscan" // the usage header names argv[0]
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("-h: %v\n%s", err, stderr.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "help.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if stderr.String() != string(want) {
		t.Errorf("-h output differs from testdata/help.golden:\ngot:\n%s\nwant:\n%s", stderr.String(), want)
	}
}
