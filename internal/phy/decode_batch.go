package phy

// Batched DATA-field decode: B packets whose SIGNAL fields agree push their
// soft streams through one lock-step Viterbi pass (viterbi.DecodeSoftBatch),
// which fills the ILP the scalar trellis recurrence leaves idle. Lane l is
// bit-identical to ds[l].DecodeDataCarriers on the same inputs: the demap,
// deinterleave and depuncture halves run per lane unchanged, the batched
// Viterbi is pinned lane≡sequential by its own differential tests, and the
// descramble/packing tail runs per lane unchanged.

// DecodeBatchScratch carries DecodeDataCarriersBatch's per-call lane slices
// across calls, so a long-lived caller decodes without allocating. The zero
// value is ready to use; the returned PSDU and error slices alias it until
// the next call.
type DecodeBatchScratch struct {
	psdus [][]byte
	errs  []error
	deps  [][]float64
	lanes []int // deps index -> lane index
	dst   [][]byte
}

// DecodeDataCarriersBatch decodes B packets' equalized data carriers in
// lock-step, one decoder per lane (each lane's scratch lives in its own
// decoder, exactly as in sequential use). All lanes must share mode, psduLen
// and symbol count; csis may be nil, or hold nil entries for unweighted
// lanes. It returns the per-lane PSDUs and errors, both held in s:
// psdus[l] is nil exactly when errs[l] is non-nil, and each error is the one
// the lane's sequential DecodeDataCarriers would have returned.
//
// If the lock-step Viterbi cannot run as one batch (a lane's terminated
// trellis fails, or stream shapes diverge), every lane falls back to its own
// sequential decode from the already-prepared streams, preserving exact
// per-lane results and error semantics.
func DecodeDataCarriersBatch(ds []*PacketDecoder, carriers [][][]complex128, csis [][][]float64, mode Mode, psduLen int, s *DecodeBatchScratch) ([][]byte, []error) {
	L := len(ds)
	s.psdus = resetLanes(s.psdus, L)
	s.errs = resetLanes(s.errs, L)
	psdus, errs := s.psdus, s.errs
	deps, lanes := s.deps[:0], s.lanes[:0]
	for l, d := range ds {
		var csi [][]float64
		if csis != nil {
			csi = csis[l]
		}
		dep, err := d.prepareSoft(carriers[l], csi, mode, psduLen)
		if err != nil {
			errs[l] = err
			continue
		}
		deps = append(deps, dep)
		lanes = append(lanes, l)
	}
	s.deps, s.lanes = deps, lanes
	if len(deps) == 0 {
		return psdus, errs
	}

	dst := resetLanes(s.dst, len(deps))
	for k, l := range lanes {
		dst[k] = ds[l].decoded
	}
	s.dst = dst
	vit := ds[lanes[0]].vit
	decoded, batchErr := vit.DecodeSoftBatch(dst, deps)
	for k, l := range lanes {
		d := ds[l]
		var bits []byte
		if batchErr == nil {
			bits = decoded[k]
		} else {
			// Whole-batch failure: re-decode this lane alone so it sees its
			// own sequential outcome (success or its own error).
			var err error
			bits, err = d.vit.DecodeSoftInto(d.decoded, deps[k])
			if err != nil {
				errs[l] = err
				continue
			}
		}
		d.decoded = bits
		psdus[l], errs[l] = d.finishDecoded(bits, psduLen)
	}
	return psdus, errs
}

// resetLanes returns buf resized to n zeroed entries, reusing its capacity.
func resetLanes[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
