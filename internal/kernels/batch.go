package kernels

// The batch kernels push B independent lanes — packets, or equal-config
// sweep points — through one kernel invocation in lock-step. The contract is
// the same bit-exactness bar as the scalar kernels, stated lane-wise: lane b
// of every batch kernel produces exactly the bits the corresponding scalar
// kernel produces on lane b alone, for every B including 1 and for ragged
// final batches (a ragged tail is just a smaller B). No operation ever mixes
// values across lanes, so the proof obligation per lane reduces to "same
// per-lane operation sequence as the scalar kernel", which the differential
// batch test suite pins on adversarial (NaN/±Inf) inputs as well.
//
// BiquadBatch does genuinely new lock-step work: it lane-interleaves a
// latency-bound IIR recurrence, whose scalar ~3-add critical path per sample
// leaves the pipeline mostly idle, and B independent recurrences fill it
// (measured ~2x at B=8). The mixer batch kernels are amortization APIs: the
// LO planes are loaded once per batch and shared across lanes, which is what
// lets the caller materialize one stochastic LO trajectory per batch instead
// of one per lane.

// MixApplyLOBatch applies the mixer frame pass to B planar frames sharing
// one materialized LO trajectory — the amortization that lets a batched
// front end draw the stochastic LO once per batch. Lane b is bit-identical
// to MixApplyLO on that lane with the same planes.
//
//lint:hotpath
func MixApplyLOBatch(xr, xi [][]float64, lor, loi []float64, mur, mui, nur, nui, g, dcr, dci float64) {
	for b := range xr {
		MixApplyLO(xr[b], xi[b], lor, loi, mur, mui, nur, nui, g, dcr, dci)
	}
}

// MixApplyBatch applies the LO-free mixer frame pass to B planar frames.
// Lane b is bit-identical to MixApply on that lane.
//
//lint:hotpath
func MixApplyBatch(xr, xi [][]float64, mur, mui, nur, nui, g, dcr, dci float64) {
	for b := range xr {
		MixApply(xr[b], xi[b], mur, mui, nur, nui, g, dcr, dci)
	}
}

// BiquadBatch advances one direct-form-II-transposed biquad section over B
// planar lanes in lock-step, sample-major: the B recurrences are independent,
// so interleaving them fills the pipeline stalls of the scalar section's
// latency-bound update chain. s1r/s1i/s2r/s2i hold lane b's two delay states
// at index b and are updated in place. Lane b is bit-identical to
// BiquadBatchRef on that lane alone: the per-sample update is the same five
// multiplies and four adds in the same order, and lanes never mix.
//
//lint:hotpath
func BiquadBatch(re, im [][]float64, b0, b1, b2, a1, a2 float64, s1r, s1i, s2r, s2i []float64) {
	if useSIMD {
		biquadBatchSIMD(re, im, b0, b1, b2, a1, a2, s1r, s1i, s2r, s2i)
		return
	}
	biquadBatchGo(re, im, b0, b1, b2, a1, a2, s1r, s1i, s2r, s2i)
}

// biquadBatchGo is the pure-Go tier of BiquadBatch: lane pairs with the four
// recurrences in registers, single-lane remainder.
//
//lint:hotpath
func biquadBatchGo(re, im [][]float64, b0, b1, b2, a1, a2 float64, s1r, s1i, s2r, s2i []float64) {
	b := 0
	for ; b+2 <= len(re); b += 2 {
		biquadPair(re[b], im[b], re[b+1], im[b+1], b0, b1, b2, a1, a2, s1r[b:], s1i[b:], s2r[b:], s2i[b:])
	}
	if b < len(re) {
		biquadLane(re[b], im[b], b0, b1, b2, a1, a2, s1r[b:], s1i[b:], s2r[b:], s2i[b:])
	}
}

// biquadQuadGo advances four lanes as two register-resident pairs. It is the
// pure-Go twin of biquadQuadAsm, which runs the same four recurrences one
// lane per ymm vector lane with the per-lane update order unchanged; both
// advance lane b exactly as biquadLane would.
//
//lint:hotpath
func biquadQuadGo(re, im [][]float64, b0, b1, b2, a1, a2 float64, s1r, s1i, s2r, s2i []float64) {
	biquadPair(re[0], im[0], re[1], im[1], b0, b1, b2, a1, a2, s1r, s1i, s2r, s2i)
	biquadPair(re[2], im[2], re[3], im[3], b0, b1, b2, a1, a2, s1r[2:], s1i[2:], s2r[2:], s2i[2:])
}

// biquadPair advances two lanes (four independent recurrences) with all four
// delay-state pairs held in registers across the sample loop. Each lane's
// per-sample update is the exact scalar sequence; the two lanes never mix.
//
//lint:hotpath
func biquadPair(r0, i0, r1, i1 []float64, b0, b1, b2, a1, a2 float64, s1r, s1i, s2r, s2i []float64) {
	p1r, p1i, p2r, p2i := s1r[0], s1i[0], s2r[0], s2i[0]
	q1r, q1i, q2r, q2i := s1r[1], s1i[1], s2r[1], s2i[1]
	i1 = i1[:len(r0)]
	r1 = r1[:len(r0)]
	i0 = i0[:len(r0)]
	for k := range r0 {
		xr0, xi0 := r0[k], i0[k]
		xr1, xi1 := r1[k], i1[k]
		yr0 := b0*xr0 + p1r
		yi0 := b0*xi0 + p1i
		yr1 := b0*xr1 + q1r
		yi1 := b0*xi1 + q1i
		p1r = b1*xr0 - a1*yr0 + p2r
		p1i = b1*xi0 - a1*yi0 + p2i
		q1r = b1*xr1 - a1*yr1 + q2r
		q1i = b1*xi1 - a1*yi1 + q2i
		p2r = b2*xr0 - a2*yr0
		p2i = b2*xi0 - a2*yi0
		q2r = b2*xr1 - a2*yr1
		q2i = b2*xi1 - a2*yi1
		r0[k] = yr0
		i0[k] = yi0
		r1[k] = yr1
		i1[k] = yi1
	}
	s1r[0], s1i[0], s2r[0], s2i[0] = p1r, p1i, p2r, p2i
	s1r[1], s1i[1], s2r[1], s2i[1] = q1r, q1i, q2r, q2i
}

// biquadLane advances the single remaining lane with its states in
// registers — the scalar recurrence, bit-identical per sample to the pair
// kernel's per-lane update.
//
//lint:hotpath
func biquadLane(r0, i0 []float64, b0, b1, b2, a1, a2 float64, s1r, s1i, s2r, s2i []float64) {
	p1r, p1i, p2r, p2i := s1r[0], s1i[0], s2r[0], s2i[0]
	i0 = i0[:len(r0)]
	for k := range r0 {
		xr0, xi0 := r0[k], i0[k]
		yr0 := b0*xr0 + p1r
		yi0 := b0*xi0 + p1i
		p1r = b1*xr0 - a1*yr0 + p2r
		p1i = b1*xi0 - a1*yi0 + p2i
		p2r = b2*xr0 - a2*yr0
		p2i = b2*xi0 - a2*yi0
		r0[k] = yr0
		i0[k] = yi0
	}
	s1r[0], s1i[0], s2r[0], s2i[0] = p1r, p1i, p2r, p2i
}

// BiquadBatchRef is the retained naive reference for BiquadBatch: one lane
// at a time through the textbook transposed direct-form-II update. It is the
// differential-test oracle and must stay semantically frozen; it is also, by
// construction, the arithmetic of dsp.Biquad applied lane-wise.
func BiquadBatchRef(re, im [][]float64, b0, b1, b2, a1, a2 float64, s1r, s1i, s2r, s2i []float64) {
	for b := range re {
		for i := range re[b] {
			xr, xi := re[b][i], im[b][i]
			yr := b0*xr + s1r[b]
			yi := b0*xi + s1i[b]
			s1r[b] = b1*xr - a1*yr + s2r[b]
			s1i[b] = b1*xi - a1*yi + s2i[b]
			s2r[b] = b2*xr - a2*yr
			s2i[b] = b2*xi - a2*yi
			re[b][i] = yr
			im[b][i] = yi
		}
	}
}
