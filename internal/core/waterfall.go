package core

import (
	"fmt"

	"wlansim/internal/measure"
	"wlansim/internal/phy"
	"wlansim/internal/seed"
	"wlansim/internal/sim"
)

// This file adds the link-budget verifications implied by §2.2 of the
// paper: the receiver must handle wanted input levels from -88 to -23 dBm.
// WaterfallBERvsSNR produces the classical per-mode BER-versus-SNR curves
// on the ideal front end; SensitivitySearch finds the minimum wanted power
// the full behavioral receiver still decodes (the -88 dBm corner);
// InputRangeCheck verifies both corners of the specified range.

// WaterfallBERvsSNR measures BER versus channel SNR for each given rate
// using the ideal front end (pure PHY performance). Each curve draws from
// its own seed stream (derived from base.Seed and the rate) and its points
// run on base.Workers goroutines.
//
// Only the noise depends on the swept SNR, so each curve's points share the
// per-packet noiseless baseband through a per-curve stage cache (the cached
// content differs per rate, hence per-curve rather than per-figure caches)
// and re-draw only the AWGN.
func WaterfallBERvsSNR(base Config, ratesMbps []int, snrsDB []float64) (*measure.Figure, error) {
	return WaterfallBERvsSNROnFrontEnd(base, FrontEndIdeal, ratesMbps, snrsDB)
}

// WaterfallBERvsSNROnFrontEnd is WaterfallBERvsSNR with a selectable analog
// abstraction level, so waterfalls can also be taken through the behavioral
// front end (the paper's pure-SPW setup). On the behavioral front end with
// base.Batch > 1, each sweep work unit is base.Batch consecutive SNR points
// whose packets share one lane run (runBERPointBatch); the series is
// bit-identical for every Batch and Workers value — only wall-clock changes.
func WaterfallBERvsSNROnFrontEnd(base Config, fe FrontEndKind, ratesMbps []int, snrsDB []float64) (*measure.Figure, error) {
	fig := &measure.Figure{Title: fmt.Sprintf("BER vs channel SNR (%v front end)", fe)}
	for _, rate := range ratesMbps {
		if _, err := phy.ModeByRate(rate); err != nil {
			return nil, err
		}
		r := rate
		rateSeed := seed.ForSeries(base.Seed, uint64(r))
		cache := newSweepCache(base)
		pointCfg := func(snr float64) Config {
			cfg := base
			cfg.Seed = seed.ForPoint(rateSeed, snr)
			cfg.ContentSeed = rateSeed
			cfg.SweptStage = StageNoise
			cfg.Cache = cache
			cfg.RateMbps = r
			cfg.FrontEnd = fe
			cfg.Interferers = nil
			s := snr
			cfg.ChannelSNRdB = &s
			return cfg
		}
		sweep := &sim.Sweep{
			Name:        fmt.Sprintf("%d Mbps", r),
			XLabel:      "channel SNR (dB)",
			YLabel:      "bit error rate",
			Values:      snrsDB,
			Workers:     base.Workers,
			OnPointDone: base.OnSweepPoint,
			RunPoint: func(snr float64) (measure.Point, error) {
				return runBERPoint(pointCfg(snr))
			},
		}
		if fe == FrontEndBehavioral && base.Batch > 1 {
			sweep.BatchSize = base.Batch
			sweep.RunPointBatch = func(snrs []float64) ([]measure.Point, error) {
				cfgs := make([]Config, len(snrs))
				for i, snr := range snrs {
					cfgs[i] = pointCfg(snr)
				}
				return runBERPointBatch(cfgs)
			}
		}
		series, err := sweep.Execute()
		if err != nil {
			return nil, err
		}
		if cache != nil {
			series.Cache = cache.Stats()
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// SensitivitySearch bisects the wanted power until the packet error rate
// crosses maxPER, returning the sensitivity in dBm (within tolDB). The
// search runs on the configured front end, so it captures the full analog
// noise/impairment budget.
func SensitivitySearch(base Config, maxPER, tolDB float64) (float64, error) {
	if maxPER <= 0 || maxPER >= 1 {
		return 0, fmt.Errorf("core: target PER %g outside (0,1)", maxPER)
	}
	if tolDB <= 0 {
		tolDB = 0.5
	}
	per := func(power float64) (float64, error) {
		cfg := base
		cfg.WantedPowerDBm = power
		bench, err := NewBench(cfg)
		if err != nil {
			return 0, err
		}
		res, err := bench.Run()
		if err != nil {
			return 0, err
		}
		return res.Counter.PER(), nil
	}
	lo, hi := -110.0, -50.0 // lo fails, hi passes (checked below)
	pHi, err := per(hi)
	if err != nil {
		return 0, err
	}
	if pHi > maxPER {
		return 0, fmt.Errorf("core: receiver fails even at %g dBm (PER %g)", hi, pHi)
	}
	pLo, err := per(lo)
	if err != nil {
		return 0, err
	}
	if pLo <= maxPER {
		return lo, nil // better than the search floor
	}
	for hi-lo > tolDB {
		mid := (lo + hi) / 2
		p, err := per(mid)
		if err != nil {
			return 0, err
		}
		if p <= maxPER {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// InputRangeResult reports the §2.2 corner verification.
type InputRangeResult struct {
	// LowCornerDBm / LowCornerBER exercise the -88 dBm sensitivity corner
	// at the most robust rate (6 Mbps).
	LowCornerDBm float64
	LowCornerBER float64
	// HighCornerDBm / HighCornerBER exercise the -23 dBm overload corner.
	HighCornerDBm float64
	HighCornerBER float64
}

// Pass reports whether both corners decode essentially error-free.
func (r InputRangeResult) Pass() bool {
	return r.LowCornerBER < 1e-3 && r.HighCornerBER < 1e-3
}

// String formats the result.
func (r InputRangeResult) String() string {
	verdict := "FAIL"
	if r.Pass() {
		verdict = "PASS"
	}
	return fmt.Sprintf("input range check %s: BER %.2g at %g dBm, BER %.2g at %g dBm",
		verdict, r.LowCornerBER, r.LowCornerDBm, r.HighCornerBER, r.HighCornerDBm)
}

// InputRangeCheck verifies the receiver across the paper's specified wanted
// input range: -88 dBm at 6 Mbps (sensitivity) and -23 dBm at 24 Mbps
// (overload; the AGC must back the gain off and the LNA headroom must
// suffice).
func InputRangeCheck(base Config) (InputRangeResult, error) {
	out := InputRangeResult{LowCornerDBm: -88, HighCornerDBm: -23}
	low := base
	low.RateMbps = 6
	low.WantedPowerDBm = out.LowCornerDBm
	bench, err := NewBench(low)
	if err != nil {
		return out, err
	}
	res, err := bench.Run()
	if err != nil {
		return out, err
	}
	out.LowCornerBER = res.BER()

	high := base
	high.RateMbps = 24
	high.WantedPowerDBm = out.HighCornerDBm
	bench, err = NewBench(high)
	if err != nil {
		return out, err
	}
	res, err = bench.Run()
	if err != nil {
		return out, err
	}
	out.HighCornerBER = res.BER()
	return out, nil
}
