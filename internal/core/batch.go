package core

import (
	"fmt"

	"wlansim/internal/measure"
	"wlansim/internal/phy"
	"wlansim/internal/randutil"
	"wlansim/internal/rf"
	"wlansim/internal/rxdsp"
	"wlansim/internal/seed"
)

// This file is the system-level end of the batched pipeline: RunBenchBatch
// takes B sweep-point configurations that differ only in their noise (Seed
// and ChannelSNRdB) and pushes all B points through the behavioral front end
// in lock-step, one packet at a time, via rf.BatchReceiver. Lane l's Result
// is bit-identical to running its Bench sequentially: the invariant prefix
// is the same cached waveform either way, each lane's antenna noise comes
// from the lane's own restarted stream, the front end is exact by the batch
// differential tests, and the DSP receiver runs per lane unchanged.

// batchableConfigs validates that cfgs form one batch group: a noise-only
// sweep over the behavioral front end whose lanes agree on every field that
// shapes the pipeline. Seed, ChannelSNRdB and the cache wiring may differ
// per lane; everything else must match lane 0.
func batchableConfigs(cfgs []Config) error {
	if len(cfgs) < 2 {
		return fmt.Errorf("core: batch of %d points (need >= 2)", len(cfgs))
	}
	c0 := cfgs[0]
	for i, c := range cfgs {
		if c.SweptStage != StageNoise {
			return fmt.Errorf("core: batch lane %d sweeps stage %v, not noise", i, c.SweptStage)
		}
		if c.FrontEnd != FrontEndBehavioral {
			return fmt.Errorf("core: batch lane %d front end %v is not behavioral", i, c.FrontEnd)
		}
		if c.ChannelSNRdB == nil {
			return fmt.Errorf("core: batch lane %d has no channel SNR", i)
		}
		if c.UseIdealRxTiming {
			return fmt.Errorf("core: batch lane %d uses ideal RX timing", i)
		}
		same := c.RateMbps == c0.RateMbps && c.PSDULen == c0.PSDULen &&
			c.Packets == c0.Packets && c.MultipathTaps == c0.MultipathTaps &&
			len(c.Interferers) == len(c0.Interferers) &&
			c.HardDecisions == c0.HardDecisions && c.DisableCSI == c0.DisableCSI &&
			c.TargetErrors == c0.TargetErrors && c.ContentSeed == c0.ContentSeed
		//lint:ignore floateq lanes must agree on the exact configured values — a tolerance would batch distinct configs together
		same = same && c.WantedPowerDBm == c0.WantedPowerDBm && c.CFOHz == c0.CFOHz && c.MultipathRMSSamples == c0.MultipathRMSSamples && c.DopplerHz == c0.DopplerHz && c.SampleClockPPM == c0.SampleClockPPM
		if !same {
			return fmt.Errorf("core: batch lane %d differs from lane 0 beyond Seed/ChannelSNRdB", i)
		}
		for j := range c.Interferers {
			if c.Interferers[j] != c0.Interferers[j] {
				return fmt.Errorf("core: batch lane %d interferer %d differs from lane 0", i, j)
			}
		}
	}
	return nil
}

// RunBenchBatch runs B equal-config noise-sweep points in lock-step and
// returns one Result per lane, each bit-identical to NewBench(cfgs[l]).Run().
//
// Per packet, every lane's invariant prefix (TX + channel) is served through
// the shared stage cache (lane 0 synthesizes, the rest hit), each lane adds
// its own antenna noise from its own per-point stream, and the B noisy
// antenna frames run through one rf.BatchReceiver — sharing the front end's
// internal noise/LO draws, which are identical across lanes by the fixed
// per-block reseeding contract. The DSP receiver then decodes each lane
// sequentially (its state is reset per packet, so lanes cannot interact).
// Early stopping (TargetErrors) is tracked per lane: finished lanes drop out
// of subsequent batches exactly as their sequential runs would have stopped.
func RunBenchBatch(cfgs []Config) ([]*Result, error) {
	if err := batchableConfigs(cfgs); err != nil {
		return nil, err
	}
	L := len(cfgs)
	benches := make([]*Bench, L)
	for i := range cfgs {
		b, err := NewBench(cfgs[i])
		if err != nil {
			return nil, err
		}
		benches[i] = b
	}

	b0 := benches[0]
	os := b0.oversample()
	mode, err := phy.ModeByRate(b0.cfg.RateMbps)
	if err != nil {
		return nil, err
	}
	fe, err := b0.buildFrontEnd(os)
	if err != nil {
		return nil, err
	}
	rx, ok := fe.(*rf.Receiver)
	if !ok {
		return nil, fmt.Errorf("core: behavioral front end built %T, not *rf.Receiver", fe)
	}
	batchRx := rf.NewBatchReceiver(rx)

	results := make([]*Result, L)
	evms := make([]evmAccum, L)
	stopped := make([]bool, L)
	for l, b := range benches {
		b.tx = &phy.Transmitter{Mode: mode}
		// Each lane's point-variant noise is its own sequential per-run
		// stream, exactly as in Run (suffixNoise holds for every lane).
		s := seed.ForStage(b.stageRoot(StageNoise), int(StageNoise), 0)
		b.noiseRNG = randutil.NewRandDirect(s)
		b.noiseMarked = true
		results[l] = &Result{OversampleFactor: os, FrontEnd: b.cfg.FrontEnd}
		// The point's single packet lane defers its DATA decode: the packet
		// loop below completes all points' Viterbi passes in lock-step
		// (ignored for hard decisions, where the lane decodes eagerly and
		// the batch completion skips it).
		b.growLanes(1, true)
	}

	waves := make([][]complex128, 0, L)
	active := make([]int, 0, L)
	pkts := make([]*rxdsp.PacketResult, 0, L)
	rxErrs := make([]error, 0, L)
	laneRxs := make([]*rxdsp.Receiver, 0, L)
	var decode rxdsp.DeferredScratch

	for p := 0; p < b0.cfg.Packets; p++ {
		waves, active = waves[:0], active[:0]
		for l, b := range benches {
			if stopped[l] {
				continue
			}
			ln := &b.lanes[0]
			if err := b.packetPrefix(p, os, ln); err != nil {
				return nil, err
			}
			b.addNoise(ln.wave, os, b.noiseRNG)
			waves = append(waves, ln.wave)
			active = append(active, l)
		}
		if len(active) == 0 {
			break
		}
		basebands := batchRx.Process(waves)
		pkts, rxErrs, laneRxs = pkts[:0], rxErrs[:0], laneRxs[:0]
		for k, l := range active {
			rx := benches[l].lanes[0].rx
			pkt, err := benches[l].receiveDSP(rx, basebands[k], mode)
			pkts = append(pkts, pkt)
			rxErrs = append(rxErrs, err)
			laneRxs = append(laneRxs, rx)
		}
		// One lock-step Viterbi pass over every lane that synchronized; a
		// lane's decode error is exactly the error its sequential Receive
		// would have returned, so it folds into the lane outcome below.
		derrs := rxdsp.DecodeDeferredBatch(laneRxs, pkts, &decode)
		for k, l := range active {
			rxErr := rxErrs[k]
			if rxErr == nil {
				rxErr = derrs[k]
			}
			b := benches[l]
			if b.accountPacket(pkts[k], rxErr, b.lanes[0].refBits, mode, results[l], &evms[l]) {
				stopped[l] = true
			}
		}
	}
	for l := range results {
		evms[l].finish(results[l])
	}
	return results, nil
}

// runBERPointBatch is the batched analogue of runBERPoint: one fully
// configured scenario per lane in, one measurement point per lane out.
func runBERPointBatch(cfgs []Config) ([]measure.Point, error) {
	results, err := RunBenchBatch(cfgs)
	if err != nil {
		return nil, err
	}
	pts := make([]measure.Point, len(results))
	for i, res := range results {
		pts[i] = res.Counter.Point()
	}
	return pts, nil
}
