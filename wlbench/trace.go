package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Spans of one op share op; parent is the
// index of the causing span in the tracer's log (-1 for none), and isOp
// marks an op's root span.
type span struct {
	name       string
	op, parent int
	isOp       bool
	start, end time.Duration
}

// tracer keeps spans in memory and aggregates them when the run ends. While
// it is off, begin and end cost one branch, so the same replay code serves
// both the traced and the untraced measurement.
type tracer struct {
	on    bool
	epoch time.Time
	op    int
	root  int
	spans []span
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, epoch: time.Now(), root: -1}
}

// beginOp opens the root span of a new op and returns its token.
func (t *tracer) beginOp(name string) int {
	if !t.on {
		return -1
	}
	t.op++
	t.spans = append(t.spans, span{name: name, op: t.op, parent: -1, isOp: true, start: time.Since(t.epoch)})
	t.root = len(t.spans) - 1
	return t.root
}

// begin opens a layer span under the current op and returns its token.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, op: t.op, parent: t.root, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

// end closes the span begin or beginOp returned.
func (t *tracer) end(tok int) {
	if tok >= 0 {
		t.spans[tok].end = time.Since(t.epoch)
	}
}

// layerTotals sums layer span durations by name, and the op roots' own
// total; both are in seconds.
func (t *tracer) layerTotals() (layers map[string]float64, ops float64, nOps int) {
	layers = make(map[string]float64)
	for _, s := range t.spans {
		d := (s.end - s.start).Seconds()
		if s.isOp {
			ops += d
			nOps++
			continue
		}
		layers[s.name] += d
	}
	return layers, ops, nOps
}

// runtimeSample is a snapshot of the Go runtime counters the per-layer
// report uses.
type runtimeSample struct {
	allocBytes      float64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// goLayer fills the go.* per-layer metrics from runtime samples taken around
// the measured window.
func goLayer(m map[string]metric, before, after runtimeSample, ops int) {
	if ops > 0 {
		m["go.alloc_kb_per_op"] = metric{(after.allocBytes - before.allocBytes) / 1024 / float64(ops), "KiB"}
	}
	if d := after.totalCPU - before.totalCPU; d > 0 {
		m["go.gc_cpu_fraction"] = metric{(after.gcCPU - before.gcCPU) / d, "ratio"}
	}
}

// rssPeakMB returns the process's peak resident set (VmHWM) in MiB.
func rssPeakMB() float64 { return statusMB("VmHWM:") }

// statusMB reads one kB field of /proc/self/status, in MiB.
func statusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// rssSampleEvery is the resident-set sampling period of a measured window.
const rssSampleEvery = 50 * time.Millisecond

// rssSampler samples the process's resident set (VmRSS) through a measured
// window.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
	samples []float64
}

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(rssSampleEvery)
		defer t.Stop()
		for {
			r.samples = append(r.samples, statusMB("VmRSS:"))
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// halt stops sampling and waits for the sampler. Safe to call more than
// once and from any goroutine.
func (r *rssSampler) halt() {
	r.once.Do(func() { close(r.stop) })
	<-r.done
}

// p90 stops the sampler, waits for it, and returns the 90th percentile of
// the samples in MiB. The peak (VmHWM) of an allocation-heavy Go process is
// set by the worst race between the garbage collector and the allocating
// workers, which the machine's scheduling decides; the p90 of the resident
// set is what the program holds.
func (r *rssSampler) p90() float64 {
	r.halt()
	v, _ := percentile(r.samples, 0.9)
	return v
}
