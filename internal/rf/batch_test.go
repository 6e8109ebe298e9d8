package rf

import (
	"math"
	"math/rand"
	"testing"
)

// batchFrames builds B random complex frames of n samples near the
// receiver's expected input level.
func batchFrames(seed int64, lanes, n int, amp float64) [][]complex128 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]complex128, lanes)
	for l := range out {
		out[l] = make([]complex128, n)
		for i := range out[l] {
			out[l][i] = complex(rng.NormFloat64()*amp, rng.NormFloat64()*amp)
		}
	}
	return out
}

func cloneFrames(src [][]complex128) [][]complex128 {
	out := make([][]complex128, len(src))
	for l := range src {
		out[l] = append([]complex128(nil), src[l]...)
	}
	return out
}

// TestBatchReceiverMatchesSequential is the front-end differential test: lane
// b of BatchReceiver.Process must be bit-identical to Reset + Process on a
// sequential receiver. Covered: batch widths 1..16, several consecutive
// batches through one driver (no state may leak between them), frames that
// span several streaming blocks, and the noiseless (DisableNoise)
// configuration.
func TestBatchReceiverMatchesSequential(t *testing.T) {
	const oversample = 4
	amp := math.Sqrt(1e-8) // ≈ -50 dBm envelope, inside the AGC window

	for _, disableNoise := range []bool{false, true} {
		cfg := DefaultReceiverConfig(oversample)
		cfg.DisableNoise = disableNoise
		for _, B := range []int{1, 2, 3, 5, 8, 16} {
			rxBatch, err := NewReceiver(cfg)
			if err != nil {
				t.Fatal(err)
			}
			batch := NewBatchReceiver(rxBatch)

			seq, err := NewReceiver(cfg)
			if err != nil {
				t.Fatal(err)
			}

			// Vary the frame length across packets: short frames fit one
			// streaming block, the last spans several plus a ragged tail.
			for pkt, n := range []int{oversample * 40, oversample * 56, 2*batchBlock + oversample*9} {
				frames := batchFrames(int64(1000*B+pkt), B, n, amp)
				got := batch.Process(cloneFrames(frames))

				for l := 0; l < B; l++ {
					seq.Reset()
					want := seq.Process(append([]complex128(nil), frames[l]...))
					if len(got[l]) != len(want) {
						t.Fatalf("noise=%v B=%d pkt=%d lane %d: batch len %d != sequential len %d",
							!disableNoise, B, pkt, l, len(got[l]), len(want))
					}
					for i := range want {
						if math.Float64bits(real(got[l][i])) != math.Float64bits(real(want[i])) ||
							math.Float64bits(imag(got[l][i])) != math.Float64bits(imag(want[i])) {
							t.Fatalf("noise=%v B=%d pkt=%d lane %d sample %d: batch %v != sequential %v",
								!disableNoise, B, pkt, l, i, got[l][i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestBatchReceiverEmpty pins the degenerate shapes: an empty batch returns
// nil and panics are reserved for ragged lanes.
func TestBatchReceiverEmpty(t *testing.T) {
	rx, err := NewReceiver(DefaultReceiverConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatchReceiver(rx)
	if out := b.Process(nil); out != nil {
		t.Fatalf("empty batch: got %v, want nil", out)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ragged batch did not panic")
		}
	}()
	b.Process([][]complex128{make([]complex128, 8), make([]complex128, 6)})
}

// TestBatchReceiverScratchReuse pins that the steady state allocates
// nothing: after the first call sized the lane scratch, repeated batches of
// the same shape must be allocation-free apart from the rand source's
// internals (which are shared with the sequential path).
func TestBatchReceiverScratchReuse(t *testing.T) {
	cfg := DefaultReceiverConfig(2)
	cfg.DisableNoise = true // keep math/rand out of the allocation count
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatchReceiver(rx)
	const B, n = 4, 256
	frames := batchFrames(7, B, n, 1e-4)
	work := cloneFrames(frames)
	b.Process(work)

	allocs := testing.AllocsPerRun(20, func() {
		for l := range work {
			copy(work[l], frames[l])
		}
		b.Process(work)
	})
	if allocs != 0 {
		t.Fatalf("steady-state batch Process allocates %v times per call", allocs)
	}
}
