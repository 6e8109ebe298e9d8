package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// processLanes runs complex lanes through the batch's planar entry point,
// the way the batched front end feeds it, and writes the result back.
func processLanes(b *IIRBatch, lanes [][]complex128) {
	re := make([][]float64, len(lanes))
	im := make([][]float64, len(lanes))
	for l, lane := range lanes {
		re[l] = make([]float64, len(lane))
		im[l] = make([]float64, len(lane))
		for i, v := range lane {
			re[l][i], im[l][i] = real(v), imag(v)
		}
	}
	b.ProcessPlanar(re, im)
	for l, lane := range lanes {
		for i := range lane {
			lane[i] = complex(re[l][i], im[l][i])
		}
	}
}

// TestIIRBatchMatchesSequential pins lane b of the batched cascade
// (ProcessPlanar) bit-identical to IIR.Process on that lane alone, across batch widths,
// filter designs (odd/even Chebyshev order, DC block with its non-unity
// gain) and multi-frame streaming state carry.
func TestIIRBatchMatchesSequential(t *testing.T) {
	cheb5, err := DesignChebyshev1(5, Lowpass, 9.5e6/20e6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cheb4, err := DesignChebyshev1(4, Lowpass, 0.3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	dcb, err := DesignDCBlock(150e3 / 20e6)
	if err != nil {
		t.Fatal(err)
	}
	designs := map[string]*IIR{"cheb5": cheb5, "cheb4": cheb4, "dcblock": dcb}

	rng := rand.New(rand.NewSource(31))
	for name, f := range designs {
		for _, B := range []int{1, 2, 3, 5, 8, 16} {
			batch := NewIIRBatch(f)
			// Sequential oracles: one cascade clone per lane so streaming
			// state carries per lane across frames, as the batch states do.
			seq := make([]*IIR, B)
			for l := range seq {
				seq[l] = NewIIR(f.Gain, f.Sections)
			}
			for frame := 0; frame < 3; frame++ {
				n := 1 + rng.Intn(300)
				got := make([][]complex128, B)
				want := make([][]complex128, B)
				for l := 0; l < B; l++ {
					got[l] = make([]complex128, n)
					want[l] = make([]complex128, n)
					for i := range got[l] {
						v := complex(rng.NormFloat64(), rng.NormFloat64())
						got[l][i] = v
						want[l][i] = v
					}
				}
				processLanes(batch, got)
				for l := 0; l < B; l++ {
					seq[l].Process(want[l])
					for i := range got[l] {
						if math.Float64bits(real(got[l][i])) != math.Float64bits(real(want[l][i])) ||
							math.Float64bits(imag(got[l][i])) != math.Float64bits(imag(want[l][i])) {
							t.Fatalf("%s B=%d frame %d lane %d sample %d: batch %v != sequential %v",
								name, B, frame, l, i, got[l][i], want[l][i])
						}
					}
				}
			}
		}
	}
}

// TestIIRBatchReset pins that Reset zeroes every lane state: a reset batch
// must reproduce a fresh batch bit for bit.
func TestIIRBatchReset(t *testing.T) {
	f, err := DesignChebyshev1(5, Lowpass, 0.25, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	const B, n = 4, 128
	mk := func(seed int64) [][]complex128 {
		r := rand.New(rand.NewSource(seed))
		lanes := make([][]complex128, B)
		for l := range lanes {
			lanes[l] = make([]complex128, n)
			for i := range lanes[l] {
				lanes[l][i] = complex(r.NormFloat64(), r.NormFloat64())
			}
		}
		return lanes
	}

	batch := NewIIRBatch(f)
	warm := mk(1)
	processLanes(batch, warm)
	batch.Reset()
	second := mk(2)
	processLanes(batch, second)

	fresh := NewIIRBatch(f)
	want := mk(2)
	processLanes(fresh, want)

	for l := 0; l < B; l++ {
		for i := 0; i < n; i++ {
			if second[l][i] != want[l][i] {
				t.Fatalf("lane %d sample %d: reset batch %v != fresh batch %v", l, i, second[l][i], want[l][i])
			}
		}
	}
}
