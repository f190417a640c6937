package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// child runs one workload run in its own process, so peak RSS and the
// heap belong to that run alone, and returns its parsed result line.
// The child's metric lines pass through to stdout.
func child(w workload, seed uint64, seconds, traced int, stdout, stderr io.Writer) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traced))
	cmd.Stdout = io.MultiWriter(&out, stdout)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("%s: no result line: %w", w.name, err)
	}
	return &res, runErr
}

// runAll runs every workload untraced, each in its own process, then
// one traced run of each, and exits nonzero if any run failed.
func runAll(seed uint64, seconds int, stdout, stderr io.Writer) int {
	code := 0
	for _, traced := range []int{0, 1} {
		for _, w := range workloads {
			fmt.Fprintf(stdout, "== %s seed %d trace %d\n", w.name, seed, traced)
			res, err := child(w, seed, seconds, traced, stdout, stderr)
			if err != nil || !res.Correct {
				fmt.Fprintf(stderr, "campaignbench: %s (trace %d) failed: %v\n", w.name, traced, err)
				code = 1
			}
		}
	}
	return code
}

// bounds reads the end-to-end bounds BENCHMARK.json declares.
func bounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]float64)
	for _, m := range b.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// runSteady is the steadiness self-check: k untraced runs of w with
// seeds seed..seed+k-1, each in its own process, then for every
// end-to-end metric the median, the quartiles and the spread
// (q3-q1)/median against the metric's bound from BENCHMARK.json. A
// metric wider than its bound is flagged WIDE, one wider than a third
// of it "noisy"; any WIDE flag or failed run makes the exit code 1.
func runSteady(w workload, seed uint64, seconds, k int, stdout, stderr io.Writer) int {
	if k < 2 {
		fmt.Fprintf(stderr, "campaignbench: --steady needs at least 2 runs\n")
		return 2
	}
	bnd, err := bounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "campaignbench: %v\n", err)
		return 2
	}
	values := make(map[string][]float64)
	code := 0
	for i := 0; i < k; i++ {
		res, err := child(w, seed+uint64(i), seconds, 0, io.Discard, stderr)
		if err != nil || !res.Correct {
			fmt.Fprintf(stderr, "campaignbench: %s seed %d failed: %v\n", w.name, seed+uint64(i), err)
			code = 1
			continue
		}
		for n, m := range res.Metrics {
			values[n] = append(values[n], m.Value)
		}
	}
	fmt.Fprintf(stdout, "%s: %d runs, seeds %d..%d\n", w.name, k, seed, seed+uint64(k)-1)
	fmt.Fprintf(stdout, "%-12s %14s %14s %14s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, n := range endToEnd {
		xs := values[n]
		if len(xs) < 2 {
			continue
		}
		q1, q2, q3 := quartiles(xs)
		spread := ratio(q3-q1, q2)
		flag := ""
		switch b := bnd[n]; {
		case spread > b:
			flag, code = "WIDE", 1
		case spread > b/3:
			flag = "noisy"
		}
		fmt.Fprintf(stdout, "%-12s %14.6g %14.6g %14.6g %8.4f %6.3g %-5s %v\n", n, q1, q2, q3, spread, bnd[n], flag, xs)
	}
	return code
}
