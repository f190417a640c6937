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

var bin string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "faultsim-test-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "faultsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building faultsim: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

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

// TestGolden pins the coverage report byte for byte (timing is on
// stderr). Regenerate with `go test ./cmd/faultsim -run TestGolden
// -update`.
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"s298", []string{"-circuit", "s298", "-n", "8", "-len", "6", "-seed", "3"}},
		{"s298_classify", []string{"-circuit", "s298", "-n", "8", "-len", "6", "-seed", "3", "-classify"}},
		{"s27_trans", []string{"-circuit", "s27", "-n", "8", "-len", "6", "-seed", "3", "-trans", "-undetected"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := run(t, tc.args...)
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr)
			}
			if strings.Contains(stdout, "cycles/s") {
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

// TestCLIErrors: usage errors print to stderr and exit with the
// contract's usage code (2), with nothing on stdout.
func TestCLIErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}},
		{"positional args", []string{"-circuit", "s27", "stray"}},
		{"no circuit", nil},
		{"unknown circuit", []string{"-circuit", "nope"}},
		{"resume without checkpoint", []string{"-circuit", "s27", "-resume"}},
		{"negative workers", []string{"-circuit", "s27", "-workers", "-1"}},
		{"resume missing file", []string{"-circuit", "s27", "-checkpoint", "/no/such/ck.json", "-resume"}},
		{"malformed int flag", []string{"-circuit", "s27", "-n", "eight"}},
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

// TestKillResumeEquivalence: a checkpointed faultsim session interrupted
// with SIGTERM whenever the snapshot advances and resumed across fresh
// processes must print exactly the uninterrupted session's report. Tiny
// chunks make every few faults a kill point.
func TestKillResumeEquivalence(t *testing.T) {
	base := []string{"-circuit", "s298", "-n", "8", "-len", "6", "-seed", "3"}
	straight, stderr, code := run(t, base...)
	if code != 0 {
		t.Fatalf("straight run exit %d: %s", code, stderr)
	}

	ck := filepath.Join(t.TempDir(), "ck.json")
	interrupted := 0
	for hop := 0; hop < 80; hop++ {
		args := append(append([]string{}, base...), "-checkpoint", ck)
		if hop == 0 {
			args = append(args, "-checkpoint-chunk", "16")
		} else {
			// Resume hops deliberately omit -checkpoint-chunk: the
			// snapshot's recorded chunk size must win over the default.
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
			if interrupted == 0 {
				t.Fatal("run was never interrupted; the kill hook is dead")
			}
			if got := so.String(); got != straight {
				t.Errorf("resumed report differs from uninterrupted run:\ngot:\n%s\nwant:\n%s", got, straight)
			}
			return
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
		interrupted++
	}
	t.Fatal("session never completed across 80 kill/resume hops")
}

// TestResumeRejectsChangedSession: the snapshot meta must refuse a
// different circuit, seed or session shape.
func TestResumeRejectsChangedSession(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	if _, stderr, code := run(t, "-circuit", "s298", "-n", "8", "-len", "6", "-seed", "3", "-checkpoint", ck); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	cases := [][]string{
		{"-circuit", "s344", "-n", "8", "-len", "6", "-seed", "3"},
		{"-circuit", "s298", "-n", "8", "-len", "6", "-seed", "4"},
		{"-circuit", "s298", "-n", "4", "-len", "6", "-seed", "3"},
		{"-circuit", "s298", "-n", "8", "-len", "6", "-seed", "3", "-trans"},
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
	cmd.Args[0] = "faultsim" // the usage header names argv[0]
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
