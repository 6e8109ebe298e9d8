package rxdsp

import "wlansim/internal/phy"

// DeferredScratch carries DecodeDeferredBatch's per-call lane slices across
// calls, so a long-lived caller (a Bench decoding every packet group)
// decodes without allocating. The zero value is ready to use; the returned
// error slice aliases it until the next call.
type DeferredScratch struct {
	errs  []error
	ds    []*phy.PacketDecoder
	carrs [][][]complex128
	csis  [][][]float64
	lanes []int
	phy   phy.DecodeBatchScratch
}

// DecodeDeferredBatch completes the DATA-field decode of deferred Receive
// results (Receiver.DeferDataDecode) in lock-step: the packets' soft streams
// run through one batched Viterbi pass, the hot half of the bit-level chain.
// Each lane's PSDU and error are bit-identical to what its non-deferred
// Receive would have produced — the pre- and post-Viterbi halves run per
// lane on the lane's own decoder scratch, and the batched Viterbi is pinned
// lane≡sequential by its differential tests.
//
// rxs[l] must be the receiver whose Receive produced pkts[l]. Lanes whose
// entry is nil or already decoded (non-nil PSDU, e.g. hard decisions) are
// skipped. Deferred lanes are grouped by their decoded SIGNAL shape — at low
// SNR, lanes can announce divergent rates or lengths — with the leading
// group decoded as one batch and any stragglers decoded sequentially.
//
// The returned slice, held in s, holds per lane the error the sequential
// Receive would have returned (nil on success); a failed lane's packet is
// lost exactly as in sequential operation.
func DecodeDeferredBatch(rxs []*Receiver, pkts []*PacketResult, s *DeferredScratch) []error {
	if cap(s.errs) < len(pkts) {
		s.errs = make([]error, len(pkts))
	}
	errs := s.errs[:len(pkts)]
	clear(errs)
	ds, carrs, csis, lanes := s.ds[:0], s.carrs[:0], s.csis[:0], s.lanes[:0]
	var mode phy.Mode
	var psduLen, nSym int
	for l, pkt := range pkts {
		if pkt == nil || pkt.PSDU != nil || rxs[l] == nil || rxs[l].dec == nil {
			continue
		}
		if len(lanes) == 0 {
			// The first deferred lane leads: its SIGNAL shape defines the
			// batch.
			mode, psduLen, nSym = pkt.Signal.Mode, pkt.Signal.Length, len(pkt.EqualizedCarriers)
		}
		if pkt.Signal.Mode == mode && pkt.Signal.Length == psduLen && len(pkt.EqualizedCarriers) == nSym {
			ds = append(ds, rxs[l].dec)
			carrs = append(carrs, pkt.EqualizedCarriers)
			csis = append(csis, pkt.CSI)
			lanes = append(lanes, l)
			continue
		}
		// Straggler with a divergent SIGNAL decode: run exactly the call
		// its Receive would have made.
		psdu, err := rxs[l].dec.DecodeDataCarriers(pkt.EqualizedCarriers, pkt.CSI, pkt.Signal.Mode, pkt.Signal.Length)
		if err != nil {
			errs[l] = err
			continue
		}
		pkt.PSDU = psdu
	}
	s.ds, s.carrs, s.csis, s.lanes = ds, carrs, csis, lanes
	if len(lanes) == 0 {
		return errs
	}
	psdus, derrs := phy.DecodeDataCarriersBatch(ds, carrs, csis, mode, psduLen, &s.phy)
	for k, l := range lanes {
		if derrs[k] != nil {
			errs[l] = derrs[k]
			continue
		}
		pkts[l].PSDU = psdus[k]
	}
	return errs
}
