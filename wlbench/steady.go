package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// bounds reads the end-to-end bounds from BENCHMARK.json in the working
// directory; a missing file yields no bounds.
func bounds() map[string]float64 {
	out := map[string]float64{}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return out
	}
	var spec benchSpec
	if json.Unmarshal(b, &spec) == nil {
		for _, m := range spec.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}

// lastResult parses the result line, the last line of a run's output.
func lastResult(output []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(output))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var r result
	if err := json.Unmarshal(last, &r); err != nil {
		return r, fmt.Errorf("no result line: %w", err)
	}
	return r, nil
}

// reportLines collects the workload-specific metrics a run prints as
// "name value unit ..." report lines, so their spread shows too.
func reportLines(output []byte) map[string]metric {
	out := map[string]metric{}
	sc := bufio.NewScanner(bytes.NewReader(output))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out["  "+f[0]] = metric{v, f[2]}
		}
	}
	return out
}

// steadiness runs the workload k times as separate processes, with seeds
// seed .. seed+k-1, and prints per metric the median, the quartile spread
// and the full range, each as a share of the median, against the metric's
// bound. A spread under a third of the bound is marked steady.
func steadiness(w io.Writer, workload string, seed int64, secs float64, trace, k int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlbench:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	failed := 0
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(secs, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		output, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "wlbench: run with seed %d: %v\n", s, err)
			return 1
		}
		r, err := lastResult(output)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wlbench: run with seed %d: %v\n", s, err)
			return 1
		}
		failed += r.Failed
		fmt.Fprintf(w, "seed %d: correct=%v attempted=%d failed=%d\n", s, r.Correct, r.Attempted, r.Failed)
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		for name, m := range reportLines(output) {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	bnd := bounds()
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-26s %14s %-6s %9s %9s %7s  %s\n", "metric", "median", "unit", "iqr/med", "range/med", "bound", "verdict")
	for _, name := range names {
		xs := values[name]
		med := median(xs)
		q1, q3, _ := quartiles(xs)
		s := sorted(xs)
		iqr := (q3 - q1) / math.Abs(med)
		rng := (s[len(s)-1] - s[0]) / math.Abs(med)
		verdict := ""
		if b, ok := bnd[name]; ok {
			switch {
			case iqr < b/3:
				verdict = "steady"
			case iqr <= b:
				verdict = "within bound, above a third"
			default:
				verdict = "UNSTEADY"
			}
			fmt.Fprintf(w, "%-26s %14.6g %-6s %9.4f %9.4f %7.3f  %s\n", name, med, units[name], iqr, rng, b, verdict)
		} else {
			fmt.Fprintf(w, "%-26s %14.6g %-6s %9.4f %9.4f %7s  %s\n", name, med, units[name], iqr, rng, "-", verdict)
		}
	}
	if failed > 0 {
		fmt.Fprintf(w, "%d failed ops across the runs\n", failed)
		return 1
	}
	return 0
}
