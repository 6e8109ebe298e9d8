package rf

import (
	"fmt"

	"wlansim/internal/dsp"
	"wlansim/internal/kernels"
	"wlansim/internal/units"
)

// The batched front end runs B equal-length antenna frames — consecutive
// packets of one point, or equal-config sweep points that differ only in
// their additive channel noise — through the behavioral receiver in
// lock-step. Exactness is the contract: lane b is bit-identical to Reset +
// Process on the sequential receiver, which the differential front-end test
// pins frame for frame. Reset restores every block completely, so a lane's
// output depends on its own frame alone.
//
// The batch wins come from three places, none of which changes a bit:
//
//   - Every internal stochastic stream (amplifier and mixer noise, LO phase
//     noise) restarts from its fixed per-block seed on Reset, so all B lanes
//     would draw the identical sequences; the batch restarts once and
//     materializes each stream into a plane shared across lanes (the
//     randutil batched-draw property).
//   - The channel filters' biquad recurrences are latency-bound; the batch
//     runs them lane-interleaved through kernels.BiquadBatch.
//   - The mixer's planar frame pass amortizes its LO planes across lanes
//     via kernels.MixApplyLOBatch.

// agcBatchState holds the per-lane AGC loop state. Every lane starts from
// the Reset values at the top of every batch, exactly as a sequential
// packet starts from AGC.Reset.
type agcBatchState struct {
	resync  []int
	gainLin []float64
	gainDB  []float64
	est     []float64
}

// processBatch runs the AGC loop over B lanes lane-interleaved: sample i of
// every lane is stepped before sample i+1 of any. Lane state lives in the
// batch arrays and lanes never mix, so lane l performs exactly the scalar
// Process arithmetic in exactly its order — the interleave only overlaps the
// lanes' serial est -> log -> step -> exp -> gain dependency chains, which
// bound the scalar loop's throughput.
//
//lint:hotpath batched AGC loop: per-sample gain recurrence across lanes
func (a *AGC) processBatch(lanes [][]complex128, st *agcBatchState) {
	if a.cfg.Freeze {
		// Frozen gain has no recurrence; the scalar per-lane pass is already
		// throughput-bound.
		for _, lane := range lanes {
			a.Reset()
			a.Process(lane)
		}
		return
	}
	L := len(lanes)
	n := len(lanes[0])
	// Per-lane Reset: the same assignments AGC.Reset performs, fanned across
	// the state lanes.
	g0 := clamp(a.cfg.InitialGainDB, a.cfg.MinGainDB, a.cfg.MaxGainDB)
	lin0 := units.DBToVoltageGain(g0)
	est0 := units.DBmToWatts(a.cfg.TargetDBm)
	gainLin, gainDB, est := st.gainLin[:L], st.gainDB[:L], st.est[:L]
	resync := st.resync[:L]
	for l := 0; l < L; l++ {
		gainDB[l] = g0
		gainLin[l] = lin0
		est[l] = est0
		resync[l] = 0
	}
	var (
		alpha   = a.alpha
		invT    = a.invTarget
		uAtt    = a.uAttack
		uRel    = a.uRelease
		attack  = a.attack
		release = a.release
		minG    = a.cfg.MinGainDB
		maxG    = a.cfg.MaxGainDB
	)
	for i := 0; i < n; i++ {
		for l := 0; l < L; l++ {
			v := lanes[l][i]
			gl := gainLin[l]
			yr := gl * real(v)
			yi := gl * imag(v)
			lanes[l][i] = complex(yr, yi)
			p := yr*yr + yi*yi
			e := est[l] + alpha*(p-est[l])
			est[l] = e
			if e > 0 {
				u := e * invT
				var step float64
				switch {
				case u >= uAtt:
					step = -attackClampDB
				case u <= uRel:
					step = releaseClampDB
				default:
					var errDB float64
					if u > 0.5 && u < 2 {
						errDB = -tenOverLn10 * lnNear1(u)
					} else {
						errDB = -tenOverLn10 * lnWide(u)
					}
					if errDB < 0 {
						step = attack * errDB
					} else {
						step = release * errDB
					}
				}
				g := clamp(gainDB[l]+step, minG, maxG)
				//lint:ignore floateq exact no-movement check: skips the gain update only when the clamp returned the identical value, any tolerance would freeze small steps
				if g != gainDB[l] {
					d := g - gainDB[l]
					gainDB[l] = g
					resync[l]++
					if resync[l] >= agcResyncInterval || d > 2 || d < -2 {
						gainLin[l] = units.DBToVoltageGain(g)
						resync[l] = 0
					} else {
						gainLin[l] = gl * expSmall(d*lnTenOver20)
					}
				}
			}
		}
	}
}

// processBatch amplifies B lanes, drawing the shared noise stream once and
// applying the exact per-sample nonlinearity per lane.
func (a *Amplifier) processBatch(lanes [][]complex128, nre, nim []float64) {
	if a.noise == nil {
		for _, lane := range lanes {
			for i, v := range lane {
				lane[i] = a.amplify(v)
			}
		}
		return
	}
	n := len(lanes[0])
	nre, nim = nre[:n], nim[:n]
	a.noise.FillNormPairs(nre, nim)
	kernels.ScalePlane(nre, a.nsig)
	kernels.ScalePlane(nim, a.nsig)
	for _, lane := range lanes {
		for i, v := range lane {
			lane[i] = a.amplify(v + complex(nre[i], nim[i]))
		}
	}
}

// processBatchPlanar mixes one block of B planar lanes in place: one
// materialized noise plane added component-wise (the same float adds the
// scalar path's complex add performs), then the planar batch kernel over all
// lanes against the frame's LO trajectory from sample off on (see frameLO).
func (m *Mixer) processBatchPlanar(xr, xi [][]float64, nre, nim []float64, off int) {
	n := len(xr[0])
	if n == 0 {
		return
	}
	L := len(xr)
	if m.noise != nil {
		nre, nim = nre[:n], nim[:n]
		m.noise.FillNormPairs(nre, nim)
		kernels.ScalePlane(nre, m.nsig)
		kernels.ScalePlane(nim, m.nsig)
		for l := 0; l < L; l++ {
			kernels.AddPlane(xr[l][:n], nre)
			kernels.AddPlane(xi[l][:n], nim)
		}
	}
	mur, mui := real(m.mu), imag(m.mu)
	nur, nui := real(m.nu), imag(m.nu)
	dcr, dci := real(m.dc), imag(m.dc)
	if m.lo != nil {
		kernels.MixApplyLOBatch(xr, xi, m.lov.Re[off:off+n], m.lov.Im[off:off+n],
			mur, mui, nur, nui, m.g, dcr, dci)
	} else {
		kernels.MixApplyBatch(xr, xi, mur, mui, nur, nui, m.g, dcr, dci)
	}
}

// batchBlock is the sample block the batch front end streams its
// LNA-to-channel-filter segment through. Every block there is a sample-wise
// map or a recurrence whose state carries across calls, and each noise
// stream is drawn strictly in sample order, so streaming changes no bit; it
// keeps the per-lane planar scratch a block wide instead of a frame wide.
const batchBlock = 1024

// BatchReceiver wraps a Receiver with lane-parallel scratch so equal-config
// antenna frames can run the whole front end in lock-step. Each Process
// call is one packet across B lanes: it resets the underlying receiver
// (restarting every fixed-seed stochastic stream once for the batch) and
// produces each lane's baseband in that lane's own storage.
type BatchReceiver struct {
	rx *Receiver

	nre, nim []float64      // shared per-block noise plane scratch
	xr, xi   [][]float64    // per-lane planar block scratch for the mixer pass
	blk      [][]complex128 // per-lane views of the current block
	dcb, chs *dsp.IIRBatch
	agc      agcBatchState
	outs     [][]complex128 // per-lane basebands, aliasing the input lanes
}

// NewBatchReceiver builds the lane-parallel driver for rx. The receiver
// remains usable sequentially; the batch driver owns all per-lane state.
func NewBatchReceiver(rx *Receiver) *BatchReceiver {
	b := &BatchReceiver{rx: rx}
	if rx.dcBlock != nil {
		b.dcb = dsp.NewIIRBatch(rx.dcBlock.iir)
	}
	if rx.chanSel != nil {
		b.chs = dsp.NewIIRBatch(rx.chanSel.iir)
	}
	return b
}

func (b *BatchReceiver) grow(lanes int) {
	if b.nre == nil {
		b.nre = make([]float64, batchBlock)
		b.nim = make([]float64, batchBlock)
	}
	if len(b.xr) < lanes {
		b.xr = make([][]float64, lanes)
		b.xi = make([][]float64, lanes)
		for l := range b.xr {
			b.xr[l] = make([]float64, batchBlock)
			b.xi[l] = make([]float64, batchBlock)
		}
		b.blk = make([][]complex128, lanes)
		b.outs = make([][]complex128, lanes)
		b.agc.resync = make([]int, lanes)
		b.agc.gainLin = make([]float64, lanes)
		b.agc.gainDB = make([]float64, lanes)
		b.agc.est = make([]float64, lanes)
	}
}

// Process runs one packet's B antenna frames through the complete front end
// in lock-step and returns the per-lane 20 MHz baseband. All frames must
// have equal length. Inputs are modified in place, and lane l's baseband is
// written over the start of lanes[l] (the returned slices alias the inputs;
// the slice holding them is reused by the next call). Lane l is
// bit-identical to rx.Reset() followed by rx.Process(lanes[l]) on a
// sequential receiver.
func (b *BatchReceiver) Process(lanes [][]complex128) [][]complex128 {
	L := len(lanes)
	if L == 0 {
		return nil
	}
	n := len(lanes[0])
	for l := 1; l < L; l++ {
		if len(lanes[l]) != n {
			panic(fmt.Sprintf("rf: batch lane %d length %d != lane 0 length %d", l, len(lanes[l]), n))
		}
	}
	b.grow(L)

	// One Reset for the batch: every fixed-seed stream restarts once and its
	// draws are shared across lanes (each lane's own restart would produce
	// the identical sequence). The per-lane filter and AGC states live in
	// the batch driver and are reset below.
	b.rx.Reset()
	if b.dcb != nil {
		b.dcb.Reset()
	}
	if b.chs != nil {
		b.chs.Reset()
	}
	prefillLOPair(b.rx.mixer1, b.rx.mixer2, n)
	b.rx.mixer1.frameLO(n)
	b.rx.mixer2.frameLO(n)

	// The LNA-to-filter segment streams block by block. Within a block the
	// mixer/filter part runs planar end to end: one conversion in, one out,
	// with the noise adds, LO mixing, and biquad cascades all working the
	// same planes. Conversions are pure load/store, so fusing them changes
	// no arithmetic.
	blk, xr, xi := b.blk[:L], b.xr[:L], b.xi[:L]
	for off := 0; off < n; off += batchBlock {
		end := min(off+batchBlock, n)
		for l, lane := range lanes {
			blk[l] = lane[off:end]
			xr[l], xi[l] = xr[l][:end-off], xi[l][:end-off]
		}
		b.rx.lna.processBatch(blk, b.nre, b.nim)
		for l, lane := range blk {
			kernels.Deinterleave(xr[l], xi[l], lane)
		}
		b.rx.mixer1.processBatchPlanar(xr, xi, b.nre, b.nim, off)
		if b.dcb != nil {
			b.dcb.ProcessPlanar(xr, xi)
		}
		b.rx.mixer2.processBatchPlanar(xr, xi, b.nre, b.nim, off)
		if b.chs != nil {
			b.chs.ProcessPlanar(xr, xi)
		}
		for l, lane := range blk {
			kernels.Interleave(lane, xr[l], xi[l])
		}
	}

	b.rx.agc.processBatch(lanes, &b.agc)
	for _, lane := range lanes {
		b.rx.adc.Process(lane)
	}
	// The decimator only drops samples (no anti-alias filter; see
	// NewReceiver), reading each input sample at or after the output index
	// it writes, so it decimates a lane in place.
	for l, lane := range lanes {
		b.rx.decim.Reset()
		b.outs[l] = b.rx.decim.ProcessInto(lane[:0], lane)
	}
	return b.outs[:L]
}
