package rxdsp

import (
	"math/rand"
	"testing"

	"wlansim/internal/bits"
	"wlansim/internal/channel"
	"wlansim/internal/dsp"
	"wlansim/internal/phy"
)

// The deferred-decode differential layer: every path through
// DecodeDeferredBatch (and phy.DecodeDataCarriersBatch beneath it) must leave
// each lane byte-identical to the non-deferred sequential Receive — PSDU
// bytes, error presence and error text alike.

// noisyWave builds a padded, noise-impaired waveform for one lane.
func noisyWave(t *testing.T, rateMbps, psduLen int, seed int64, snrDB float64) ([]complex128, *phy.Frame) {
	t.Helper()
	frame := makeFrame(t, rateMbps, psduLen, seed)
	x := withPadding(frame, 300, 100)
	channel.AddNoiseSNR(x, snrDB, seed+7777)
	return x, frame
}

// receiveLanes runs each waveform through its own receiver and returns the
// per-lane packets and Receive errors. deferData selects the deferred path.
func receiveLanes(waves [][]complex128, deferData, hard bool) ([]*Receiver, []*PacketResult, []error) {
	rxs := make([]*Receiver, len(waves))
	pkts := make([]*PacketResult, len(waves))
	errs := make([]error, len(waves))
	for l, w := range waves {
		rx := NewReceiver()
		rx.DeferDataDecode = deferData
		rx.HardDecisions = hard
		rxs[l] = rx
		pkts[l], errs[l] = rx.Receive(dsp.Clone(w), 0)
	}
	return rxs, pkts, errs
}

// checkLaneEquivalence pins the deferred-batch outcome of every lane to its
// sequential outcome at byte and error-text level.
func checkLaneEquivalence(t *testing.T, seqPkts []*PacketResult, seqErrs []error, batchPkts []*PacketResult, batchErrs []error) {
	t.Helper()
	for l := range seqPkts {
		if (seqErrs[l] == nil) != (batchErrs[l] == nil) {
			t.Fatalf("lane %d: sequential err %v, deferred err %v", l, seqErrs[l], batchErrs[l])
		}
		if seqErrs[l] != nil {
			if seqErrs[l].Error() != batchErrs[l].Error() {
				t.Errorf("lane %d: error text diverged:\n seq: %v\n bat: %v", l, seqErrs[l], batchErrs[l])
			}
			continue
		}
		if !bits.Equal(bits.FromBytes(seqPkts[l].PSDU), bits.FromBytes(batchPkts[l].PSDU)) {
			t.Errorf("lane %d: deferred-batch PSDU differs from sequential", l)
		}
	}
}

// runDeferredDifferential receives every waveform twice — sequentially and
// deferred+batched — and checks lane equivalence.
func runDeferredDifferential(t *testing.T, waves [][]complex128) {
	t.Helper()
	_, seqPkts, seqErrs := receiveLanes(waves, false, false)
	rxs, pkts, errs := receiveLanes(waves, true, false)
	derrs := DecodeDeferredBatch(rxs, pkts, new(DeferredScratch))
	for l := range errs {
		if errs[l] == nil {
			errs[l] = derrs[l]
		} else if pkts[l] != nil {
			t.Fatalf("lane %d: failed Receive returned a packet", l)
		}
	}
	checkLaneEquivalence(t, seqPkts, seqErrs, pkts, errs)
}

func TestDeferredBatchMatchesSequential(t *testing.T) {
	for _, rate := range []int{6, 24, 54} {
		for _, B := range []int{1, 2, 3, 5, 8} {
			waves := make([][]complex128, B)
			for l := range waves {
				waves[l], _ = noisyWave(t, rate, 80, int64(1000*rate+l), 24)
			}
			runDeferredDifferential(t, waves)
		}
	}
}

func TestDeferredBatchMatchesSequentialAtLowSNR(t *testing.T) {
	// Near the waterfall some lanes decode garbage, some fail sync or SIGNAL,
	// and lanes can announce divergent rates/lengths — whatever happens, the
	// deferred batch must reproduce the sequential outcome exactly.
	for _, snr := range []float64{2, 4, 6} {
		waves := make([][]complex128, 6)
		for l := range waves {
			waves[l], _ = noisyWave(t, 24, 60, int64(31*int(snr)+l), snr)
		}
		runDeferredDifferential(t, waves)
	}
}

func TestDeferredBatchDivergentSignalGrouping(t *testing.T) {
	// Clean lanes of two different rates: the lead group batches, the other
	// rate takes the straggler path. Both must decode perfectly.
	frames := make([]*phy.Frame, 0, 4)
	waves := make([][]complex128, 0, 4)
	for l, rate := range []int{24, 6, 24, 6} {
		frame := makeFrame(t, rate, 90, int64(500+l))
		frames = append(frames, frame)
		waves = append(waves, withPadding(frame, 250, 100))
	}
	rxs, pkts, errs := receiveLanes(waves, true, false)
	for l, err := range errs {
		if err != nil {
			t.Fatalf("lane %d: clean Receive failed: %v", l, err)
		}
		if pkts[l].PSDU != nil {
			t.Fatalf("lane %d: deferred Receive decoded the PSDU eagerly", l)
		}
	}
	derrs := DecodeDeferredBatch(rxs, pkts, new(DeferredScratch))
	for l := range pkts {
		if derrs[l] != nil {
			t.Fatalf("lane %d: deferred decode failed: %v", l, derrs[l])
		}
		if !bits.Equal(bits.FromBytes(pkts[l].PSDU), bits.FromBytes(frames[l].PSDU)) {
			t.Errorf("lane %d: PSDU corrupted across divergent-SIGNAL grouping", l)
		}
	}
}

func TestDeferredBatchSkipsHardDecisionLanes(t *testing.T) {
	// HardDecisions decodes eagerly; the batch completion must leave those
	// lanes untouched and still complete interleaved soft lanes.
	waves := make([][]complex128, 4)
	frames := make([]*phy.Frame, 4)
	for l := range waves {
		waves[l], frames[l] = noisyWave(t, 12, 70, int64(900+l), 28)
	}
	rxs := make([]*Receiver, len(waves))
	pkts := make([]*PacketResult, len(waves))
	for l, w := range waves {
		rx := NewReceiver()
		rx.DeferDataDecode = true
		rx.HardDecisions = l%2 == 0
		rxs[l] = rx
		var err error
		pkts[l], err = rx.Receive(dsp.Clone(w), 0)
		if err != nil {
			t.Fatalf("lane %d: %v", l, err)
		}
	}
	hardPSDUs := [][]byte{append([]byte(nil), pkts[0].PSDU...), append([]byte(nil), pkts[2].PSDU...)}
	derrs := DecodeDeferredBatch(rxs, pkts, new(DeferredScratch))
	for l := range pkts {
		if derrs[l] != nil {
			t.Fatalf("lane %d: %v", l, derrs[l])
		}
		if !bits.Equal(bits.FromBytes(pkts[l].PSDU), bits.FromBytes(frames[l].PSDU)) {
			t.Errorf("lane %d: PSDU errors", l)
		}
	}
	if !bits.Equal(bits.FromBytes(pkts[0].PSDU), bits.FromBytes(hardPSDUs[0])) ||
		!bits.Equal(bits.FromBytes(pkts[2].PSDU), bits.FromBytes(hardPSDUs[1])) {
		t.Error("batch completion rewrote an eagerly-decoded hard lane")
	}
}

func TestDeferredBatchSkipsNilLanes(t *testing.T) {
	wave, frame := noisyWave(t, 24, 50, 77, 26)
	rxs, pkts, errs := receiveLanes([][]complex128{wave}, true, false)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	// Surround the real lane with nil packets (failed Receives) and a nil
	// receiver slot, as the core lane engine produces for lost lanes.
	rxs = []*Receiver{nil, rxs[0], NewReceiver()}
	pkts = []*PacketResult{nil, pkts[0], nil}
	derrs := DecodeDeferredBatch(rxs, pkts, new(DeferredScratch))
	if derrs[0] != nil || derrs[2] != nil {
		t.Errorf("nil lanes reported errors: %v %v", derrs[0], derrs[2])
	}
	if derrs[1] != nil {
		t.Fatalf("live lane failed: %v", derrs[1])
	}
	if !bits.Equal(bits.FromBytes(pkts[1].PSDU), bits.FromBytes(frame.PSDU)) {
		t.Error("live lane PSDU corrupted by nil neighbors")
	}
}

// TestDecodeDataCarriersBatchMatchesSequential pins the phy-layer batch decode
// directly: B decoders over ideal-receiver carrier grids, with and without
// CSI, against per-lane DecodeDataCarriers on fresh decoders.
func TestDecodeDataCarriersBatchMatchesSequential(t *testing.T) {
	for _, rate := range []int{6, 24, 54} {
		for _, B := range []int{1, 2, 4, 7} {
			mode, err := phy.ModeByRate(rate)
			if err != nil {
				t.Fatal(err)
			}
			psduLen := 60
			carrs := make([][][]complex128, B)
			csis := make([][][]float64, B)
			want := make([][]byte, B)
			r := rand.New(rand.NewSource(int64(100*rate + B)))
			for l := 0; l < B; l++ {
				frame := makeFrame(t, rate, psduLen, int64(40*B+l))
				x := withPadding(frame, 50, 50)
				channel.AddNoiseSNR(x, 22, int64(41*B+l))
				ir := &IdealReceiver{Mode: frame.Mode, PSDULen: psduLen}
				res, err := ir.Receive(x, 50)
				if err != nil {
					t.Fatal(err)
				}
				carrs[l] = res.EqualizedCarriers
				csi := make([][]float64, len(res.EqualizedCarriers))
				for s := range csi {
					csi[s] = make([]float64, len(res.EqualizedCarriers[s]))
					for k := range csi[s] {
						csi[s][k] = 0.25 + r.Float64()
					}
				}
				if l%2 == 1 {
					csis[l] = csi // alternate weighted and unweighted lanes
				}
				want[l], err = phy.NewPacketDecoder().DecodeDataCarriers(carrs[l], csis[l], mode, psduLen)
				if err != nil {
					t.Fatalf("lane %d sequential: %v", l, err)
				}
			}
			ds := make([]*phy.PacketDecoder, B)
			for l := range ds {
				ds[l] = phy.NewPacketDecoder()
			}
			var scratch phy.DecodeBatchScratch
			psdus, errs := phy.DecodeDataCarriersBatch(ds, carrs, csis, mode, psduLen, &scratch)
			for l := 0; l < B; l++ {
				if errs[l] != nil {
					t.Fatalf("rate %d B %d lane %d: %v", rate, B, l, errs[l])
				}
				if !bits.Equal(bits.FromBytes(psdus[l]), bits.FromBytes(want[l])) {
					t.Errorf("rate %d B %d lane %d: batch PSDU differs from sequential", rate, B, l)
				}
			}
			// Scratch reuse: a second pass over the same inputs and the same
			// batch scratch must reproduce itself (decoder state fully reset
			// between packets).
			again, errs2 := phy.DecodeDataCarriersBatch(ds, carrs, csis, mode, psduLen, &scratch)
			for l := 0; l < B; l++ {
				if errs2[l] != nil {
					t.Fatalf("second pass lane %d: %v", l, errs2[l])
				}
				if !bits.Equal(bits.FromBytes(again[l]), bits.FromBytes(want[l])) {
					t.Errorf("second pass lane %d: scratch reuse changed the decode", l)
				}
			}
		}
	}
}
