package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"time"

	"wlansim/internal/core"
	"wlansim/internal/measure"
	"wlansim/internal/rf"
	"wlansim/internal/seed"
	"wlansim/internal/sim"
)

// fig5Grid is the Fig. 5 sweep grid: six channel-filter passband edges.
func fig5Grid() []float64 { return sim.Linspace(6e6, 16e6, 6) }

// fig5Config is the Fig. 5 scenario as `wlansim fig5` runs it: 48 Mbit/s
// with a +16 dB adjacent channel at 3x oversampling, points on all CPUs,
// stage cache on.
func fig5Config(s int64) core.Config {
	cfg := core.Figure5Config()
	cfg.Seed = s
	cfg.Workers = 0
	return cfg
}

// seriesDigest fingerprints a series' labels and points bit for bit. The
// stage-cache statistics are left out: they describe how the series was
// computed, not what it is.
func seriesDigest(s *measure.Series) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%q %q %q %d\n", s.Label, s.XLabel, s.YLabel, len(s.Points))
	for _, p := range s.Points {
		fmt.Fprintf(h, "%x %x %x %x %d %d\n", math.Float64bits(p.X), math.Float64bits(p.Y),
			math.Float64bits(p.CILo), math.Float64bits(p.CIHi), p.Bits, p.Errors)
	}
	return h.Sum64()
}

// fig5Reference computes the sweep without the stage cache, the series every
// cached sweep must reproduce.
func fig5Reference(base core.Config) (uint64, *measure.Series, error) {
	base.DisableStageCache = true
	ref, err := core.FilterBandwidthSweep(base, fig5Grid())
	if err != nil {
		return 0, nil, err
	}
	return seriesDigest(ref), ref, nil
}

func runFig5(o opts) (*outcome, error) {
	base := fig5Config(o.seed)
	grid := fig5Grid()
	out := newOutcome()

	// Set-up: a one-point, one-packet warm-up sweep, which constructs the 3x
	// front end, the interferer transmitter and the FFT plans.
	warm := fig5Config(o.seed)
	warm.Packets = 1
	if _, err := core.FilterBandwidthSweep(warm, grid[:1]); err != nil {
		return nil, err
	}
	if o.setupDone() {
		return out, nil
	}

	if o.trace {
		return out, traceFig5(o, base, out)
	}

	var sweepMS []float64
	var digests []uint64
	var cache measure.CacheStats
	rss := startRSS()
	start := time.Now()
	rate := newRateMeter(start)
	deadline := start.Add(seconds(o.seconds))
	for time.Now().Before(deadline) {
		t0 := time.Now()
		s, err := core.FilterBandwidthSweep(base, grid)
		t1 := time.Now()
		sweepMS = append(sweepMS, t1.Sub(t0).Seconds()*1e3)
		rate.add(t0, t1, float64(len(grid)*base.Packets))
		if err != nil {
			digests = append(digests, 0)
			continue
		}
		digests = append(digests, seriesDigest(s))
		cache = s.Cache
	}
	end := time.Now()
	wall := end.Sub(start).Seconds()
	out.e2e["rss_p90_mb"] = metric{rss.p90(), "MiB"}
	out.notef("rss_peak_mb %.4f MiB (VmHWM)", rssPeakMB())

	// The check runs after the measured window: every sweep must equal the
	// uncached reference bit for bit.
	ref, _, err := fig5Reference(base)
	if err != nil {
		return nil, err
	}
	for _, d := range digests {
		out.record(d != 0 && d == ref)
	}

	p90, ok := percentile(sweepMS, 0.9)
	// The median: the tail of a sweep on all CPUs follows the host's steal.
	out.windowedLatency(sweepMS, 0.5)
	out.e2e["throughput_per_s"] = metric{rate.sustained(end), "1/s"}
	out.notef("sweep_ms_p50 %.4f ms (%d sweeps of %d points x %d packets)", median(sweepMS), len(sweepMS), len(grid), base.Packets)
	out.notef("sweep_ms_p90 %.4f ms%s", p90, unsupported(ok, len(sweepMS)))
	out.notef("packet_points_per_s_mean %.4f /s", float64(len(sweepMS)*len(grid)*base.Packets)/wall)
	out.notef("stage cache of the last sweep: %s", cache)
	return out, nil
}

// fig5Point is the per-point scenario FilterBandwidthSweep builds, from the
// sweep's public Config fields only.
func fig5Point(base core.Config, edge float64, cache *sim.StageCache) core.Config {
	cfg := base
	cfg.Seed = seed.ForPoint(base.Seed, edge)
	cfg.ContentSeed = base.Seed
	cfg.SweptStage = core.StageFrontEnd
	cfg.SweptFrontEndFilterOnly = true
	cfg.Cache = cache
	prev := base.TuneRF
	cfg.TuneRF = func(rc *rf.ReceiverConfig) {
		if prev != nil {
			prev(rc)
		}
		rc.ChannelFilterEdgeHz = edge
	}
	return cfg
}

// replayPoints runs the sweep's points from outside on a worker pool with
// one shared stage cache, timing each point. It returns the series points in
// grid order (X rescaled like the sweep's), the point times and the wall
// time.
func replayPoints(base core.Config, grid []float64, workers int) ([]measure.Point, []float64, float64, error) {
	cache := sim.NewStageCache(base.CacheBytes)
	pts := make([]measure.Point, len(grid))
	times := make([]float64, len(grid))
	errs := make([]error, len(grid))
	next := make(chan int, len(grid)) // holds the whole grid: filled before the workers start
	for i := range grid {
		next <- i
	}
	close(next)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				p0 := time.Now()
				b, err := core.NewBench(fig5Point(base, grid[i], cache))
				if err == nil {
					var res *core.Result
					if res, err = b.Run(); err == nil {
						pts[i] = res.Counter.Point()
						pts[i].X = grid[i] / 1e8
					}
				}
				times[i] = time.Since(p0).Seconds() * 1e3
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0).Seconds() * 1e3
	for _, err := range errs {
		if err != nil {
			return nil, nil, 0, err
		}
	}
	return pts, times, wall, nil
}

// samePoints compares two point lists bit for bit.
func samePoints(a, b []measure.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		p, q := a[i], b[i]
		if math.Float64bits(p.X) != math.Float64bits(q.X) || math.Float64bits(p.Y) != math.Float64bits(q.Y) ||
			math.Float64bits(p.CILo) != math.Float64bits(q.CILo) || math.Float64bits(p.CIHi) != math.Float64bits(q.CIHi) ||
			p.Bits != q.Bits || p.Errors != q.Errors {
			return false
		}
	}
	return true
}

// traceFig5 is the traced fig5-sweep run. Each round runs the real sweep
// (cache statistics), the point replay (sim.* metrics) and the span replay
// twice, with spans on and off. The span replay is the cached sweep's
// structure driven from outside: each packet's prefix (TX, interferer,
// composition, front end up to the filter) once, then per passband edge the
// front end from the filter on, the DSP receiver and the accounting. Every
// replay must reproduce the uncached reference series.
func traceFig5(o opts, base core.Config, out *outcome) error {
	grid := fig5Grid()
	refDigest, ref, err := fig5Reference(base)
	if err != nil {
		return err
	}
	tr := newTracer(false)
	ch, err := newChain(base, tr)
	if err != nil {
		return err
	}
	fes := make([]*rf.Receiver, len(grid))
	for i, edge := range grid {
		if fes[i], err = rf.NewReceiver(rfConfig(fig5Point(base, edge, nil), ch.os)); err != nil {
			return err
		}
	}
	var pre, x []complex128
	spanReplay := func() []measure.Point {
		tallies := make([]tally, len(grid))
		for p := 0; p < base.Packets; p++ {
			refBits, wave, err := ch.synth(p, base.Seed)
			if err != nil {
				return nil
			}
			fes[0].Reset()
			tok := tr.begin("rf.to_filter")
			pre = append(pre[:0], fes[0].ProcessToFilter(wave)...)
			tr.end(tok)
			for i := range grid {
				x = append(x[:0], pre...)
				fes[i].Reset()
				tok := tr.begin("rf.from_filter")
				bb := fes[i].ProcessFromFilter(x)
				tr.end(tok)
				ch.receive(refBits, bb, &tallies[i])
			}
		}
		pts := make([]measure.Point, len(grid))
		for i := range grid {
			pts[i] = tallies[i].counter.Point()
			pts[i].X = grid[i] / 1e8
		}
		return pts
	}

	workers := runtime.NumCPU()
	var tracedMS, plainMS, pointMS []float64
	var util []float64
	var cache measure.CacheStats
	// The go.* metrics describe the production sweep only, so the runtime
	// counters are summed over the real sweeps.
	var rt runtimeSample
	sweeps := 0
	deadline := time.Now().Add(seconds(o.seconds))
	for time.Now().Before(deadline) {
		r0 := readRuntime()
		s, err := core.FilterBandwidthSweep(base, grid)
		r1 := readRuntime()
		rt.allocBytes += r1.allocBytes - r0.allocBytes
		rt.gcCPU += r1.gcCPU - r0.gcCPU
		rt.totalCPU += r1.totalCPU - r0.totalCPU
		sweeps++
		out.record(err == nil && seriesDigest(s) == refDigest)
		if err == nil {
			cache = s.Cache
		}

		pts, times, wall, err := replayPoints(base, grid, workers)
		out.record(err == nil && samePoints(pts, ref.Points))
		if err == nil {
			pointMS = append(pointMS, times...)
			util = append(util, sum(times)/(float64(workers)*wall))
		}

		for _, on := range []bool{true, false} {
			tr.on = on
			root := tr.beginOp("core.sweep")
			t0 := time.Now()
			got := spanReplay()
			d := time.Since(t0).Seconds() * 1e3
			tr.end(root)
			if on {
				tracedMS = append(tracedMS, d)
			} else {
				plainMS = append(plainMS, d)
			}
			tr.on = false
			out.record(samePoints(got, ref.Points))
		}
	}
	goLayer(out.layer, runtimeSample{}, rt, sweeps)

	layers, opSec, nOps := tr.layerTotals()
	covered := 0.0
	for name, sec := range layers {
		out.layer[name+"_us"] = metric{sec * 1e6 / float64(nOps), "us"}
		covered += sec
	}
	out.layer["core.other_us"] = metric{(opSec - covered) * 1e6 / float64(nOps), "us"}
	out.layer["trace.coverage"] = metric{covered / opSec, "ratio"}
	out.layer["trace.overhead_pct"] = metric{100 * (median(tracedMS) - median(plainMS)) / median(plainMS), "%"}
	out.layer["sim.cache_hit_ratio"] = metric{cache.HitRate(), "ratio"}
	out.layer["sim.cache_peak_bytes"] = metric{float64(cache.PeakBytes), "bytes"}
	out.layer["sim.cache_evictions"] = metric{float64(cache.Evictions), "count"}
	out.layer["sim.point_ms_p50"] = metric{median(pointMS), "ms"}
	out.layer["sim.worker_util"] = metric{median(util), "ratio"}
	out.notef("span replay: serial, per sweep; %d rounds of sweep + point replay + span replay on/off", sweeps)
	return nil
}
