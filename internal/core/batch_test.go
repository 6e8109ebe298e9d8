package core

import (
	"testing"

	"wlansim/internal/measure"
	"wlansim/internal/seed"
)

// batchSweepConfigs builds B equal-config behavioral noise-sweep points
// exactly the way the waterfall harness does, sharing one stage cache.
func batchSweepConfigs(base Config, rate int, snrs []float64) []Config {
	rateSeed := seed.ForSeries(base.Seed, uint64(rate))
	cache := newSweepCache(base)
	cfgs := make([]Config, len(snrs))
	for i, snr := range snrs {
		cfg := base
		cfg.Seed = seed.ForPoint(rateSeed, snr)
		cfg.ContentSeed = rateSeed
		cfg.SweptStage = StageNoise
		cfg.Cache = cache
		cfg.RateMbps = rate
		cfg.FrontEnd = FrontEndBehavioral
		cfg.Interferers = nil
		s := snr
		cfg.ChannelSNRdB = &s
		cfgs[i] = cfg
	}
	return cfgs
}

func batchBase() Config {
	base := DefaultConfig()
	base.Packets = 2
	base.PSDULen = 40
	base.Seed = 1
	return base
}

// runAlone runs cfg on its own Bench: the reference every batched point
// must reproduce.
func runAlone(t *testing.T, cfg Config) *Result {
	t.Helper()
	bench, err := NewBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bench.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunBenchBatchMatchesSequential is the system-level differential test
// for sweep points as lanes: every point of runBERPointBatch must reproduce
// its bench run alone exactly, and so must every bench's Result — error
// counts, packet accounting and EVM — when the points share one runLanes
// call, at the golden rates 6/24/54.
func TestRunBenchBatchMatchesSequential(t *testing.T) {
	base := batchBase()
	snrs := []float64{8, 12, 16, 20}
	for _, rate := range []int{6, 24, 54} {
		cfgs := batchSweepConfigs(base, rate, snrs)
		pts, err := runBERPointBatch(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		benches := make([]*Bench, len(cfgs))
		for l, cfg := range cfgs {
			if benches[l], err = NewBench(cfg); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]*Result, len(cfgs))
		if err := runLanes(benches, got); err != nil {
			t.Fatal(err)
		}
		for l, cfg := range cfgs {
			want := runAlone(t, cfg)
			if pts[l] != want.Counter.Point() {
				t.Errorf("%d Mbps point %d (SNR %g): batch point %+v != sequential %+v",
					rate, l, snrs[l], pts[l], want.Counter.Point())
			}
			if !sameResult(got[l], want) {
				t.Errorf("%d Mbps point %d (SNR %g): shared run %+v %+v != alone %+v %+v",
					rate, l, snrs[l], got[l].Counter, got[l].EVM, want.Counter, want.EVM)
			}
		}
	}
}

// TestRunBenchBatchEarlyStop pins the per-point TargetErrors accounting: a
// point that reaches its error target drops its later lanes at exactly the
// packet its sequential run would have stopped, without disturbing the
// remaining points.
func TestRunBenchBatchEarlyStop(t *testing.T) {
	base := batchBase()
	base.Packets = 4
	base.TargetErrors = 1
	snrs := []float64{0, 4, 25, 30} // low-SNR points stop early, high-SNR points run out
	cfgs := batchSweepConfigs(base, 24, snrs)
	got, err := runBERPointBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for l, cfg := range cfgs {
		if want := runAlone(t, cfg).Counter.Point(); got[l] != want {
			t.Errorf("point %d (SNR %g): batch point %+v != sequential %+v", l, snrs[l], got[l], want)
		}
	}
}

// TestRunBenchBatchRejectsMixedConfigs pins the gate: an empty batch, or
// points differing beyond Seed/ChannelSNRdB or outside the
// noise-sweep/behavioral shape, are rejected rather than silently
// mis-batched.
func TestRunBenchBatchRejectsMixedConfigs(t *testing.T) {
	base := batchBase()
	rateMix := batchSweepConfigs(base, 24, []float64{10, 14})
	rateMix[1].RateMbps = 6
	ideal := batchSweepConfigs(base, 24, []float64{10, 14})
	ideal[0].FrontEnd = FrontEndIdeal
	noSNR := batchSweepConfigs(base, 24, []float64{10, 14})
	noSNR[1].ChannelSNRdB = nil
	wrongStage := batchSweepConfigs(base, 24, []float64{10, 14})
	wrongStage[0].SweptStage = StageFrontEnd

	for name, cfgs := range map[string][]Config{
		"empty": nil, "rate mix": rateMix, "ideal front end": ideal,
		"missing SNR": noSNR, "wrong stage": wrongStage,
	} {
		if _, err := runBERPointBatch(cfgs); err == nil {
			t.Errorf("%s: batch accepted", name)
		}
	}
}

// TestGoldenBERBatchingInvariant is the golden fixed-seed regression for the
// batch dispatch: the behavioral waterfall at 6/24/54 Mbit/s must be
// byte-identical with batching off and on, across worker counts, for lane
// groups that straddle packet indices (Batch=3 and Batch=2 against four-wide
// groups), for a point that reaches TargetErrors mid-group while its
// batch-mates run on, and for a tail work unit of a single point.
func TestGoldenBERBatchingInvariant(t *testing.T) {
	rates := []int{6, 24, 54}
	type shape struct {
		packets, targetErrors int
		snrs                  string
	}
	snrSets := map[string][]float64{
		"4": {8, 12, 16, 20},
		"5": {8, 11, 14, 17, 20},
		// Point 0 at 0 dB stops on its first packet; at Batch=2 its second
		// packet shares that group with point 1, which runs all its packets.
		"stop": {0, 25, 4, 30},
	}

	run := func(s shape, batch, workers int) *measure.Figure {
		t.Helper()
		cfg := batchBase()
		cfg.Packets = s.packets
		cfg.TargetErrors = s.targetErrors
		cfg.Batch = batch
		cfg.Workers = workers
		fig, err := WaterfallBERvsSNROnFrontEnd(cfg, FrontEndBehavioral, rates, snrSets[s.snrs])
		if err != nil {
			t.Fatal(err)
		}
		return fig
	}

	refs := map[shape]*measure.Figure{}
	for _, v := range []struct {
		name           string
		shape          shape
		batch, workers int
	}{
		{"batch=4 workers=1", shape{2, 0, "4"}, 4, 1},
		{"batch=3 workers=1 (one-point tail)", shape{2, 0, "4"}, 3, 1},
		{"batch=4 workers=8", shape{2, 0, "4"}, 4, 8},
		{"batch=0 workers=8", shape{2, 0, "4"}, 0, 8},
		{"batch=3 packets=5 (groups straddle packets)", shape{5, 0, "4"}, 3, 1},
		{"batch=4 five points (one-point tail)", shape{2, 0, "5"}, 4, 2},
		{"batch=2 packets=5 target errors (stop mid-group)", shape{5, 1, "stop"}, 2, 1},
	} {
		ref, ok := refs[v.shape]
		if !ok {
			ref = run(v.shape, 0, 1)
			refs[v.shape] = ref
		}
		if v.shape.snrs == "stop" {
			// The row exercises a mid-group stop only if the 0 dB point stops
			// after its first packet while its batch-mate at 25 dB runs every
			// packet (the series lists points in X order).
			packetBits := batchBase().PSDULen * 8
			for si, series := range ref.Series {
				at0, at25 := series.Points[0], series.Points[2]
				if at0.X != 0 || at0.Bits != packetBits || at25.X != 25 || at25.Bits != v.shape.packets*packetBits {
					t.Fatalf("%s: rate %d: points %+v and %+v, want %d and %d bits",
						v.name, rates[si], at0, at25, packetBits, v.shape.packets*packetBits)
				}
			}
		}
		fig := run(v.shape, v.batch, v.workers)
		if len(fig.Series) != len(ref.Series) {
			t.Fatalf("%s: %d series, want %d", v.name, len(fig.Series), len(ref.Series))
		}
		for si, series := range fig.Series {
			want := ref.Series[si].Points
			if len(series.Points) != len(want) {
				t.Fatalf("%s series %d: %d points, want %d", v.name, si, len(series.Points), len(want))
			}
			for pi, p := range series.Points {
				// Point is a struct of float64/int fields; == is bit-level
				// equality apart from distinguishing -0 (none are produced).
				if p != want[pi] {
					t.Errorf("%s: rate %d point %d: %+v != reference %+v",
						v.name, rates[si], pi, p, want[pi])
				}
			}
		}
	}
}
