package randutil

import (
	"math"
	"testing"
)

// TestFillNormPairsMatchesPerPacketRestart is the batched-RNG property test:
// one Rewind plus one materialized draw sequence must reproduce, bit for
// bit, the draws each of B per-packet-rewound lanes would make on its own.
// This is the exactness argument for sharing one noise/LO plane across a
// batch of equal-config lanes.
func TestFillNormPairsMatchesPerPacketRestart(t *testing.T) {
	const seed = 103 // a mixer noise-stream seed
	const n = 257
	rng := NewRandDirect(seed)

	// The batch path: rewind once, materialize once.
	rng.Rewind()
	re := make([]float64, n)
	im := make([]float64, n)
	rng.FillNormPairs(re, im)

	// The sequential path: every lane rewinds the same stream and draws per
	// sample. Every lane must see exactly the materialized planes.
	for lane := 0; lane < 8; lane++ {
		rng.Rewind()
		for i := 0; i < n; i++ {
			d1, d2 := rng.NormFloat64(), rng.NormFloat64()
			if math.Float64bits(d1) != math.Float64bits(re[i]) ||
				math.Float64bits(d2) != math.Float64bits(im[i]) {
				t.Fatalf("lane %d sample %d: per-packet draws (%x,%x) != materialized (%x,%x)",
					lane, i, math.Float64bits(d1), math.Float64bits(d2),
					math.Float64bits(re[i]), math.Float64bits(im[i]))
			}
		}
	}
}

// TestFillNormPairsAdvancesStream pins that materializing consumes exactly
// 2n draws: the next draw after FillNormPairs equals the 2n+1-th draw of a
// freshly rewound stream, so interleaving materialized frames with scalar
// draws preserves the stream position.
func TestFillNormPairsAdvancesStream(t *testing.T) {
	const seed, n = 42, 63
	rng := NewRandDirect(seed)

	re := make([]float64, n)
	im := make([]float64, n)
	rng.FillNormPairs(re, im)
	next := rng.NormFloat64()

	rng.Rewind()
	for i := 0; i < 2*n; i++ {
		rng.NormFloat64()
	}
	want := rng.NormFloat64()
	if math.Float64bits(next) != math.Float64bits(want) {
		t.Fatalf("stream position after FillNormPairs: next draw %x != %x", math.Float64bits(next), math.Float64bits(want))
	}
}
