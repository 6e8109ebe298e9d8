// Command wlbench is wlansim's benchmark: it runs one named workload in one
// process for a fixed time, checks every output, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as the last line of
// standard output:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// Run it from the repository root through wlbench/run.sh, which builds it:
//
//	bash wlbench/run.sh --workload packet-b24 --seed 1 --seconds 30 --trace 0
//	bash wlbench/run.sh --workload fig5-sweep --seed 1 --seconds 30 --steady 10
//
// See wlbench/README.md for the workloads, the metrics and the A/B rule.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"wlansim/internal/kernels"
	"wlansim/internal/seed"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opts are the run parameters every workload receives.
type opts struct {
	seed    int64
	seconds float64
	trace   bool
	// probe is where a set-up probe reports ready; nil in a measured run.
	probe io.Writer
}

// outcome is what a workload hands back: its op accounting and metrics.
type outcome struct {
	attempted, failed int
	e2e               map[string]metric
	layer             map[string]metric
	// notes are human-readable report lines printed before the result,
	// among them the workload-specific metrics under their own names.
	notes []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layer: map[string]metric{}}
}

// record counts one op and whether it failed.
func (o *outcome) record(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// windowedLatency sets latency_ms, the windowed q-quantile of op times in
// the order the ops ended, and notes how many chunks it took the median
// over. Each workload passes the quantile that is steady on its own noise
// (README.md, "Why a windowed quantile").
func (o *outcome) windowedLatency(xs []float64, q float64) {
	v, k, ok := windowedQuantile(xs, q)
	o.e2e["latency_ms"] = metric{v, "ms"}
	flag := ""
	if !ok {
		flag = fmt.Sprintf(" (FLAGGED: a chunk holds fewer than %d ops)", chunkOps)
	}
	o.notef("latency_chunks %d count (latency_ms is the median of their p%.0f)%s", k, 100*q, flag)
}

// e2eUnits are the end-to-end metrics every untraced run prints, whatever
// the workload (BENCHMARK.json lists the same names).
var e2eUnits = map[string]string{
	"setup_s":          "s",
	"latency_ms":       "ms",
	"throughput_per_s": "1/s",
	"rss_p90_mb":       "MiB",
}

// layerUnits are the per-layer metrics every traced run prints. A layer a
// workload does not exercise reports 0.
var layerUnits = map[string]string{
	"phy.tx_us":               "us",
	"channel.compose_us":      "us",
	"channel.interferer_us":   "us",
	"channel.awgn_us":         "us",
	"rf.to_filter_us":         "us",
	"rf.from_filter_us":       "us",
	"rf.lna_us":               "us",
	"rf.mixer1_us":            "us",
	"rf.hpf_us":               "us",
	"rf.mixer2_us":            "us",
	"rf.lpf_us":               "us",
	"rf.agc_us":               "us",
	"rf.adc_us":               "us",
	"rf.decim_us":             "us",
	"rxdsp.receive_us":        "us",
	"phy.viterbi_us":          "us",
	"measure.account_us":      "us",
	"core.other_us":           "us",
	"trace.coverage":          "ratio",
	"trace.overhead_pct":      "%",
	"sim.cache_hit_ratio":     "ratio",
	"sim.cache_peak_bytes":    "bytes",
	"sim.cache_evictions":     "count",
	"sim.point_ms_p50":        "ms",
	"sim.worker_util":         "ratio",
	"service.queue_ms":        "ms",
	"service.run_ms":          "ms",
	"service.store_hits":      "count",
	"service.store_misses":    "count",
	"service.warm_job_ms_p50": "ms",
	"store.get_us_p50":        "us",
	"store.put_us_p50":        "us",
	"store.flush_ms":          "ms",
	"store.hit_ratio":         "ratio",
	"store.bytes":             "bytes",
	"store.evictions":         "count",
	"go.alloc_kb_per_op":      "KiB",
	"go.gc_cpu_fraction":      "ratio",
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(opts) (*outcome, error){
	"packet-b24": runPacket,
	"fig5-sweep": runFig5,
	"daemon-mix": runDaemon,
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("wlbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload name: packet-b24, fig5-sweep or daemon-mix")
	seedFlag := fl.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fl.Float64("seconds", 30, "measured time per run")
	traceFlag := fl.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	steady := fl.Int("steady", 0, "steadiness mode: run the workload this many times (seeds seed, seed+1, ...) and print each metric's spread")
	setupProbe := fl.Bool("setup-probe", false, "set the workload up once, print \"ready\", tear down and exit (setup_s times these)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "wlbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "wlbench: -seconds must be > 0 and -trace 0 or 1")
		return 2
	}
	if env := overrides(os.Environ()); len(env) > 0 {
		fmt.Fprintf(os.Stderr, "wlbench: refusing to run with simulator overrides set: %s\n", strings.Join(env, " "))
		return 2
	}
	if *steady > 0 {
		return steadiness(stdout, *workload, *seedFlag, *seconds, *traceFlag, *steady)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	o := opts{
		// The program never sees the workload seed itself, only inputs
		// derived from it.
		seed:    seed.Derive(*seedFlag, 0x77_6c_62_65_6e_63_68),
		seconds: *seconds,
		trace:   *traceFlag == 1,
	}
	if *setupProbe {
		o.probe = stdout
		if _, err := runner(o); err != nil {
			fmt.Fprintf(os.Stderr, "wlbench: %s set-up probe: %v\n", *workload, err)
			return 1
		}
		return 0
	}

	id := identity()
	idLine, _ := json.Marshal(id)
	fmt.Fprintf(stdout, "identity %s\n", idLine)

	// setup_s is timed in fresh processes before the measured run sets up,
	// so every sample is cold and none falls inside the measured window.
	var setup float64
	var setups []float64
	if !o.trace {
		var err error
		if setup, setups, err = coldSetups(*workload, *seedFlag, setupProbes); err != nil {
			fmt.Fprintf(os.Stderr, "wlbench: %s: %v\n", *workload, err)
			return 1
		}
	}
	out, err := runner(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wlbench: %s: %v\n", *workload, err)
		return 1
	}
	if !o.trace {
		out.e2e["setup_s"] = metric{setup, "s"}
		s := sorted(setups)
		out.notef("setup_cold_s %.6f s (median of %d fresh processes, process start to first op; min %.6f, max %.6f)",
			setup, len(s), s[0], s[len(s)-1])
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed}
	if o.trace {
		res.Metrics = complete(out.layer, layerUnits)
	} else {
		res.Metrics = complete(out.e2e, e2eUnits)
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "wlbench: no op completed in the measured window")
		return 1
	}
	fmt.Fprintf(stdout, "error_rate %.6g (%d failed / %d attempted)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// complete returns exactly the names of want, taking values from got and 0
// for a name got lacks (a layer the workload does not exercise).
func complete(got map[string]metric, want map[string]string) map[string]metric {
	out := make(map[string]metric, len(want))
	for name, unit := range want {
		v := got[name].Value
		out[name] = metric{Value: v, Unit: unit}
	}
	return out
}

// overrides lists the WLANSIM_* environment switches set: they change the
// kernel tier or code path, so results taken under one are not comparable.
func overrides(env []string) []string {
	var set []string
	for _, kv := range env {
		if strings.HasPrefix(kv, "WLANSIM_") {
			set = append(set, kv)
		}
	}
	sort.Strings(set)
	return set
}

// runIdentity records what produced a result, so figures from different
// machines, toolchains or kernel tiers are never read as one trajectory.
type runIdentity struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Dispatch   string `json:"dispatch"`
}

func identity() runIdentity {
	return runIdentity{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit("."),
		SourceHash: sourceHash("."),
		Dispatch:   kernels.DispatchName(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD of the repository at root without running git, or
// returns "none" outside a git checkout (the source hash still identifies
// the code then).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if h, r, ok := strings.Cut(line, " "); ok && r == ref {
			return h
		}
	}
	return "none"
}

// sourceHash digests every Go source and module file under root, in path
// order, skipping VCS metadata and build outputs.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, ".s") && filepath.Base(path) != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
