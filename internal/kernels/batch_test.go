package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// The batch differential suite pins every batch kernel batch≡sequential at
// the bit level: lane b of the batch call must equal the scalar kernel run
// on lane b alone, across widths B ∈ {1..8, 16} (a ragged final batch is a
// smaller B, so the sweep over widths covers tails) and across adversarial
// NaN/±Inf inputs, reusing the scalar harness's generators.

var batchWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 16}

// fillPlanes fills B lane planes with Gaussian values, optionally salted
// with NaN/±Inf like acsRandSoft.
func fillPlanes(rng *rand.Rand, lanes [][]float64, adversarial bool) {
	for _, l := range lanes {
		acsRandSoft(rng, l, adversarial)
	}
}

func makePlanes(b, n int) [][]float64 {
	p := make([][]float64, b)
	for i := range p {
		p[i] = make([]float64, n)
	}
	return p
}

func clonePlanes(src [][]float64) [][]float64 {
	dst := make([][]float64, len(src))
	for i := range src {
		dst[i] = append([]float64(nil), src[i]...)
	}
	return dst
}

// bitsEqualLane is bitsEqual with the lane index in the failure message; it
// inherits the same NaN-payload equivalence (a NaN must be NaN in both
// kernels, but its payload bits are unspecified — see bitsEqual).
func bitsEqualLane(t *testing.T, name string, lane int, got, want []float64) {
	t.Helper()
	for i := range got {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s lane %d sample %d: %x != sequential %x", name, lane, i,
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestMixBatchMatchesSequential checks the mixer frame batch kernels, with
// and without a shared LO trajectory, lane-for-lane against the scalar
// kernels, including adversarial lane contents.
func TestMixBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, B := range batchWidths {
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(100)
			adversarial := trial%2 == 1
			mur, mui := rng.NormFloat64(), rng.NormFloat64()
			nur, nui := rng.NormFloat64(), rng.NormFloat64()
			g, dcr, dci := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()

			lor := make([]float64, n)
			loi := make([]float64, n)
			acsRandSoft(rng, lor, false)
			acsRandSoft(rng, loi, false)

			xr := makePlanes(B, n)
			xi := makePlanes(B, n)
			fillPlanes(rng, xr, adversarial)
			fillPlanes(rng, xi, adversarial)

			gr, gi := clonePlanes(xr), clonePlanes(xi)
			MixApplyLOBatch(gr, gi, lor, loi, mur, mui, nur, nui, g, dcr, dci)
			for b := 0; b < B; b++ {
				wr := append([]float64(nil), xr[b]...)
				wi := append([]float64(nil), xi[b]...)
				MixApplyLO(wr, wi, lor, loi, mur, mui, nur, nui, g, dcr, dci)
				bitsEqualLane(t, "mix-lo re", b, gr[b], wr)
				bitsEqualLane(t, "mix-lo im", b, gi[b], wi)
			}

			gr, gi = clonePlanes(xr), clonePlanes(xi)
			MixApplyBatch(gr, gi, mur, mui, nur, nui, g, dcr, dci)
			for b := 0; b < B; b++ {
				wr := append([]float64(nil), xr[b]...)
				wi := append([]float64(nil), xi[b]...)
				MixApply(wr, wi, mur, mui, nur, nui, g, dcr, dci)
				bitsEqualLane(t, "mix re", b, gr[b], wr)
				bitsEqualLane(t, "mix im", b, gi[b], wi)
			}
		}
	}
}

// TestBiquadBatchMatchesRef drives the lane-interleaved biquad and its
// frozen lane-major reference over identical lanes, states and
// coefficients, asserting bit equality of every output sample and every
// final delay state — including NaN/±Inf lane contents, which each lane
// must propagate exactly as its own scalar recurrence would.
func TestBiquadBatchMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, B := range batchWidths {
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(200)
			adversarial := trial%2 == 1
			// Plausible-magnitude section coefficients; stability is
			// irrelevant to bit equality.
			b0, b1, b2 := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
			a1, a2 := rng.NormFloat64()*0.5, rng.NormFloat64()*0.5

			re := makePlanes(B, n)
			im := makePlanes(B, n)
			fillPlanes(rng, re, adversarial)
			fillPlanes(rng, im, adversarial)
			s1r, s1i := make([]float64, B), make([]float64, B)
			s2r, s2i := make([]float64, B), make([]float64, B)
			acsRandSoft(rng, s1r, false)
			acsRandSoft(rng, s1i, false)
			acsRandSoft(rng, s2r, false)
			acsRandSoft(rng, s2i, false)

			gre, gim := clonePlanes(re), clonePlanes(im)
			g1r := append([]float64(nil), s1r...)
			g1i := append([]float64(nil), s1i...)
			g2r := append([]float64(nil), s2r...)
			g2i := append([]float64(nil), s2i...)
			BiquadBatch(gre, gim, b0, b1, b2, a1, a2, g1r, g1i, g2r, g2i)

			wre, wim := clonePlanes(re), clonePlanes(im)
			BiquadBatchRef(wre, wim, b0, b1, b2, a1, a2, s1r, s1i, s2r, s2i)

			for b := 0; b < B; b++ {
				bitsEqualLane(t, "biquad re", b, gre[b], wre[b])
				bitsEqualLane(t, "biquad im", b, gim[b], wim[b])
			}
			bitsEqual(t, "biquad s1r", g1r, s1r)
			bitsEqual(t, "biquad s1i", g1i, s1i)
			bitsEqual(t, "biquad s2r", g2r, s2r)
			bitsEqual(t, "biquad s2i", g2i, s2i)
		}
	}
}

// TestBatchKernelsEmptyBatch pins the B=0 degenerate shape: a no-op, not a
// panic, so ragged dispatch logic upstream can stay branch-free.
func TestBatchKernelsEmptyBatch(t *testing.T) {
	MixApplyLOBatch(nil, nil, nil, nil, 1, 0, 0, 0, 1, 0, 0)
	MixApplyBatch(nil, nil, 1, 0, 0, 0, 1, 0, 0)
	BiquadBatch(nil, nil, 1, 0, 0, 0, 0, nil, nil, nil, nil)
	BiquadBatchRef(nil, nil, 1, 0, 0, 0, 0, nil, nil, nil, nil)
}

// benchBiquadBatch measures the lane-interleaved biquad against the
// lane-major reference at B=8 — the latency-bound recurrence the batch
// layer exists to fill.
func benchBiquadBatch(b *testing.B, run func(re, im [][]float64, b0, b1, b2, a1, a2 float64, s1r, s1i, s2r, s2i []float64)) {
	const B, n = 8, 4096
	rng := rand.New(rand.NewSource(11))
	src := makePlanes(B, 2*n) // one backing set: first B are re, next B are im
	fillPlanes(rng, src, false)
	re := makePlanes(B, n)
	im := makePlanes(B, n)
	s1r, s1i := make([]float64, B), make([]float64, B)
	s2r, s2i := make([]float64, B), make([]float64, B)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Refill from the pristine source each iteration: filtering in place
		// repeatedly would decay the signal into denormals and poison timing.
		for k := 0; k < B; k++ {
			copy(re[k], src[k][:n])
			copy(im[k], src[k][n:])
			s1r[k], s1i[k], s2r[k], s2i[k] = 0, 0, 0, 0
		}
		run(re, im, 0.067455, 0.134911, 0.067455, -1.142981, 0.412802, s1r, s1i, s2r, s2i)
	}
}

func BenchmarkBiquadBatch(b *testing.B)    { benchBiquadBatch(b, BiquadBatch) }
func BenchmarkBiquadBatchRef(b *testing.B) { benchBiquadBatch(b, BiquadBatchRef) }
