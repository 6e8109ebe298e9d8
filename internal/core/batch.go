package core

import (
	"fmt"

	"wlansim/internal/measure"
)

// This file is the sweep-point end of the lane engine: runBERPointBatch
// takes sweep-point configurations that differ only in their noise (Seed and
// ChannelSNRdB) and runs all their packets as the lanes of one runLanes call.
// Each point's Result is bit-identical to running its Bench alone: the
// invariant prefix is the same cached waveform either way, each point's
// antenna noise comes from its own restarted stream, the shared front end is
// built identically for every point and is exact by the batch differential
// tests, and the DSP receiver runs per lane unchanged.

// batchableConfigs validates that cfgs form one batch: a noise-only sweep
// over the behavioral front end whose points agree on every field that
// shapes the pipeline. Seed, ChannelSNRdB and the cache wiring may differ
// per point; everything else must match point 0. One point is a valid batch.
func batchableConfigs(cfgs []Config) error {
	if len(cfgs) == 0 {
		return fmt.Errorf("core: empty batch")
	}
	c0 := cfgs[0]
	for i, c := range cfgs {
		if c.SweptStage != StageNoise {
			return fmt.Errorf("core: batch point %d sweeps stage %v, not noise", i, c.SweptStage)
		}
		if c.FrontEnd != FrontEndBehavioral {
			return fmt.Errorf("core: batch point %d front end %v is not behavioral", i, c.FrontEnd)
		}
		if c.ChannelSNRdB == nil {
			return fmt.Errorf("core: batch point %d has no channel SNR", i)
		}
		if c.UseIdealRxTiming {
			return fmt.Errorf("core: batch point %d uses ideal RX timing", i)
		}
		same := c.RateMbps == c0.RateMbps && c.PSDULen == c0.PSDULen &&
			c.Packets == c0.Packets && c.MultipathTaps == c0.MultipathTaps &&
			len(c.Interferers) == len(c0.Interferers) &&
			c.HardDecisions == c0.HardDecisions && c.DisableCSI == c0.DisableCSI &&
			c.TargetErrors == c0.TargetErrors && c.ContentSeed == c0.ContentSeed
		//lint:ignore floateq points must agree on the exact configured values — a tolerance would batch distinct configs together
		same = same && c.WantedPowerDBm == c0.WantedPowerDBm && c.CFOHz == c0.CFOHz && c.MultipathRMSSamples == c0.MultipathRMSSamples && c.DopplerHz == c0.DopplerHz && c.SampleClockPPM == c0.SampleClockPPM
		if !same {
			return fmt.Errorf("core: batch point %d differs from point 0 beyond Seed/ChannelSNRdB", i)
		}
		for j := range c.Interferers {
			if c.Interferers[j] != c0.Interferers[j] {
				return fmt.Errorf("core: batch point %d interferer %d differs from point 0", i, j)
			}
		}
	}
	return nil
}

// runBERPointBatch is the batched analogue of runBERPoint: one fully
// configured scenario per point in, one measurement point per point out. The
// points' benches share one lane run (runLanes), so each point's packets ride
// the same lane groups as its batch-mates'.
func runBERPointBatch(cfgs []Config) ([]measure.Point, error) {
	if err := batchableConfigs(cfgs); err != nil {
		return nil, err
	}
	benches := make([]*Bench, len(cfgs))
	for i := range cfgs {
		b, err := NewBench(cfgs[i])
		if err != nil {
			return nil, err
		}
		benches[i] = b
	}
	results := make([]*Result, len(cfgs))
	if err := runLanes(benches, results); err != nil {
		return nil, err
	}
	pts := make([]measure.Point, len(results))
	for i, res := range results {
		pts[i] = res.Counter.Point()
	}
	return pts, nil
}
