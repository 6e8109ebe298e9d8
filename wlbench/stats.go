package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before it is reported: a tail figure resting on fewer is noise.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (mean of the two middle values for an even
// count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the same
// "exclusive" interpolation as Python's statistics.quantiles(xs, n=4), so the
// spreads printed by the steadiness mode match what an external checker
// computes from the same values. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, false
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	const n = 4
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3), true
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and
// whether at least minBeyond samples lie beyond it. A percentile without
// that support is refused: ok is false and the caller must not report it.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	s := sorted(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= minBeyond
}

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.9, 0.5}

// highestSupported returns the highest candidate percentile that has at
// least minBeyond samples beyond it for n samples, or 0 when even the median
// lacks that support.
func highestSupported(n int) float64 {
	for _, q := range tailQuantiles {
		rank := int(math.Ceil(q * float64(n)))
		if rank >= 1 && n-rank >= minBeyond {
			return q
		}
	}
	return 0
}

// chunkOps is the fewest ops a chunk of windowedQuantile holds: enough for
// minBeyond samples beyond a chunk's p90.
const chunkOps = 100

// windowedQuantile cuts a run's op times, in the order the ops ended, into
// consecutive chunks of at least chunkOps ops (at most rateWindows chunks),
// and returns the median of the chunks' q-quantiles and the chunk count. ok
// is false when a chunk's quantile lacks minBeyond samples beyond it, which
// happens only for runs of fewer than chunkOps ops. A quantile over the
// whole run moves as soon as host load slows a share of the run beyond it;
// the median chunk quantile moves only when load slows half the chunks.
func windowedQuantile(xs []float64, q float64) (v float64, chunks int, ok bool) {
	n := len(xs)
	k := min(rateWindows, n/chunkOps)
	if k < 1 {
		k = 1
	}
	ps := make([]float64, k)
	ok = n > 0
	for i := range ps {
		p, supported := percentile(xs[i*n/k:(i+1)*n/k], q)
		ps[i] = p
		ok = ok && supported
	}
	return median(ps), k, ok
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// rateWindows is how many equal windows a measured run is cut into for its
// sustained throughput.
const rateWindows = 30

// rateMeter records the work each op completed over the interval it ran.
// Safe for concurrent use.
type rateMeter struct {
	start time.Time
	mu    sync.Mutex
	ops   []opInterval
}

type opInterval struct {
	a, b time.Duration
	work float64
}

func newRateMeter(start time.Time) *rateMeter { return &rateMeter{start: start} }

// add records work done between t0 and t1.
func (m *rateMeter) add(t0, t1 time.Time, work float64) {
	m.mu.Lock()
	m.ops = append(m.ops, opInterval{t0.Sub(m.start), t1.Sub(m.start), work})
	m.mu.Unlock()
}

// sustained cuts the window that ended at end into rateWindows equal
// windows, credits each op's work to the windows its interval overlaps in
// proportion to the overlap, and returns the median of the per-window
// rates, per second. Host load that slows a minority of the windows does
// not move it; a code change moves every window.
func (m *rateMeter) sustained(end time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	win := end.Sub(m.start) / rateWindows
	if win <= 0 {
		return 0
	}
	bins := make([]float64, rateWindows)
	for _, op := range m.ops {
		if op.b <= op.a {
			if i := int(op.b / win); i >= 0 && i < len(bins) {
				bins[i] += op.work
			}
			continue
		}
		for i := range bins {
			lo, hi := time.Duration(i)*win, time.Duration(i+1)*win
			if ov := min(op.b, hi) - max(op.a, lo); ov > 0 {
				bins[i] += op.work * float64(ov) / float64(op.b-op.a)
			}
		}
	}
	for i := range bins {
		bins[i] /= win.Seconds()
	}
	return median(bins)
}
