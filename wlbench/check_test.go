package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wlansim/internal/core"
	"wlansim/internal/measure"
	"wlansim/internal/service"
)

// flipped returns p with the lowest bit of Y flipped.
func flipped(p measure.Point) measure.Point {
	p.Y = math.Float64frombits(math.Float64bits(p.Y) ^ 1)
	return p
}

// TestFlippedReferenceFailsOp is the negative control of the output checks:
// a reference that differs from the output in one bit must count as a
// failed op, in each workload's check.
func TestFlippedReferenceFailsOp(t *testing.T) {
	bench, err := core.NewBench(packetConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := bench.Run()
	if err != nil {
		t.Fatal(err)
	}
	ref := digest(*res)
	out := newOutcome()
	out.record(packetOK(res, ref))
	out.record(packetOK(res, ref^1))
	if out.attempted != 2 || out.failed != 1 {
		t.Fatalf("packet check: %d failed of %d, want the flipped reference alone to fail", out.failed, out.attempted)
	}

	s := &measure.Series{Label: "l", Points: []measure.Point{{X: 0.06, Y: 1e-3, Bits: 800, Errors: 1}}}
	bad := &measure.Series{Label: "l", Points: []measure.Point{flipped(s.Points[0])}}
	out = newOutcome()
	out.record(seriesDigest(s) == seriesDigest(s))
	out.record(seriesDigest(bad) == seriesDigest(s))
	out.record(samePoints(bad.Points, s.Points))
	if out.failed != 2 {
		t.Fatalf("sweep checks: %d failed, want 2", out.failed)
	}

	spec, err := service.SweepSpec{Kind: "evm", Packets: 1, Points: 2, Seed: 3}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	pts := []measure.Point{{X: 10, Y: 0.1}, {X: 35, Y: 0.01}}
	reg := &registry{points: map[uint64]measure.Point{}}
	out = newOutcome()
	out.record(reg.check(spec, pts))
	out.record(reg.check(spec, []measure.Point{pts[0], flipped(pts[1])}))
	if out.failed != 1 {
		t.Fatalf("daemon registry: %d failed, want the flipped re-serving alone to fail", out.failed)
	}
}

// TestRefusedSubmissionFailsOp injects a 429 answer: the op must fail.
func TestRefusedSubmissionFailsOp(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"service: job queue full, retry after 1s"}`))
	}))
	defer srv.Close()
	_, err := runJob(context.Background(), srv.Client(), srv.URL, service.SweepSpec{Kind: "evm"})
	out := newOutcome()
	out.record(err == nil)
	if err == nil || !strings.Contains(err.Error(), "429") || out.failed != 1 {
		t.Fatalf("429 answer: err %v, %d failed; want an HTTP 429 error counted as failed", err, out.failed)
	}
}

// TestStackServesWarmRepeatIdentically drives the in-process daemon stack:
// a cold job computes its points, the repeat serves every one from the
// store, bit-identical, and both match the in-process core run.
func TestStackServesWarmRepeatIdentically(t *testing.T) {
	st, err := openStack(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{}
	spec := service.SweepSpec{Kind: "snr", FrontEnd: "behavioral", Packets: 1, Points: 3, Seed: 5, From: 8, To: 20}
	reg := &registry{points: map[uint64]measure.Point{}}
	coldRep, err := runJob(context.Background(), client, st.url, spec)
	if err != nil {
		t.Fatal(err)
	}
	warmRep, err := runJob(context.Background(), client, st.url, coldRep.status.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.close(); err != nil {
		t.Fatal(err)
	}
	if coldRep.status.StoreMisses != 3 || warmRep.status.StoreHits != 3 {
		t.Fatalf("cold misses %d, warm hits %d; want 3 and 3", coldRep.status.StoreMisses, warmRep.status.StoreHits)
	}
	if !reg.check(coldRep.status.Spec, coldRep.points) || !reg.check(warmRep.status.Spec, warmRep.points) {
		t.Fatal("warm serving differs from the cold one")
	}
	want, err := inProcess(coldRep.status.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if !samePoints(coldRep.points, want.Points) {
		t.Fatal("served points differ from the in-process core run")
	}
	if len(st.timed.get) == 0 || len(st.timed.put) != 3 {
		t.Fatalf("timing decorator saw %d gets, %d puts", len(st.timed.get), len(st.timed.put))
	}
}

func TestOverlapSpecHalfStored(t *testing.T) {
	c := service.SweepSpec{Values: []float64{1, 2, 3, 4}}
	got := overlapSpec(c).Values
	want := []float64{3, 4, 5, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("overlap grid %v, want %v", got, want)
		}
	}
}

func TestOverridesRefused(t *testing.T) {
	if got := overrides([]string{"HOME=/x", "WLANSIM_SIMD=off"}); len(got) != 1 || got[0] != "WLANSIM_SIMD=off" {
		t.Fatalf("overrides = %v", got)
	}
	t.Setenv("WLANSIM_SIMD", "off")
	var buf bytes.Buffer
	if code := run([]string{"--workload", "packet-b24", "--seconds", "1"}, &buf); code == 0 || buf.Len() != 0 {
		t.Fatalf("run with WLANSIM_SIMD set: exit %d, output %q; want a refusal", code, buf.String())
	}
}

// TestBenchmarkJSONNamesMetrics keeps BENCHMARK.json and the metric tables
// the runs print in step.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, listed []struct{ Name, Unit string }, table map[string]string) {
		if len(listed) != len(table) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the run prints %d", kind, len(listed), len(table))
		}
		for _, m := range listed {
			if unit, ok := table[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: %s [%s] not printed with that unit (have %q)", kind, m.Name, m.Unit, unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, e2eUnits)
	same("per_layer", spec.PerLayer, layerUnits)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}

// TestWorkloadsShort runs every workload briefly, untraced and traced: no op
// may fail, every end-to-end metric must be non-zero, and every per-layer
// name a workload sets must be one the run prints.
func TestWorkloadsShort(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for name, runner := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := runner(opts{seed: 99, seconds: 0.3, trace: traced})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if out.attempted == 0 || out.failed != 0 {
				t.Errorf("%s trace=%v: %d failed of %d", name, traced, out.failed, out.attempted)
			}
			if !traced {
				for m := range e2eUnits {
					if m == "setup_s" {
						continue // run sets it from the set-up probes
					}
					if out.e2e[m].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", name, m, out.e2e[m].Value)
					}
				}
			}
			for m := range out.layer {
				if _, ok := layerUnits[m]; !ok {
					t.Errorf("%s: per-layer %s is not a printed metric", name, m)
				}
			}
		}
	}
}

// TestSetupProbe runs every workload as a set-up probe: it must report ready
// exactly once and measure nothing.
func TestSetupProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("sets the workloads up")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for name, runner := range workloads {
		var ready bytes.Buffer
		out, err := runner(opts{seed: 99, seconds: 30, probe: &ready})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := ready.String(); got != probeReady+"\n" {
			t.Errorf("%s: probe printed %q, want %q", name, got, probeReady+"\n")
		}
		if out.attempted != 0 {
			t.Errorf("%s: probe attempted %d ops, want 0", name, out.attempted)
		}
	}
}
