package randutil

import (
	"math"
	"math/rand"
	"testing"
)

// TestRandDirectStreamEquality pins every concrete-receiver draw method
// against math/rand on the same seed. The interleaved method mix walks all
// branch combinations; the long pure-NormFloat64 run afterwards makes the
// rare ziggurat paths (tail loop, wedge rejection) statistically certain to
// be exercised — at ~1% rejection rate, 200k draws miss them with
// probability ~e^-2000.
func TestRandDirectStreamEquality(t *testing.T) {
	for _, seed := range []int64{0, 1, 5, 42, -13, 1 << 50, 7316732536662113123} {
		fast := NewRandDirect(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 4000; i++ {
			switch i % 4 {
			case 0:
				if g, w := fast.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 %d, want %d", seed, i, g, w)
				}
			case 1:
				if g, w := fast.Int63(), ref.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 %d, want %d", seed, i, g, w)
				}
			case 2:
				if g, w := math.Float64bits(fast.Float64()), math.Float64bits(ref.Float64()); g != w {
					t.Fatalf("seed %d draw %d: Float64 bits %x, want %x", seed, i, g, w)
				}
			case 3:
				if g, w := math.Float64bits(fast.NormFloat64()), math.Float64bits(ref.NormFloat64()); g != w {
					t.Fatalf("seed %d draw %d: NormFloat64 bits %x, want %x", seed, i, g, w)
				}
			}
		}
		for i := 0; i < 200000; i++ {
			if g, w := math.Float64bits(fast.NormFloat64()), math.Float64bits(ref.NormFloat64()); g != w {
				t.Fatalf("seed %d long-run draw %d: NormFloat64 bits %x, want %x", seed, i, g, w)
			}
		}
	}
}

// TestRandDirectSeedMidStream reseeds mid-stream with derived-style seeds —
// the per-packet noise usage — and pins the stream after each reseed.
func TestRandDirectSeedMidStream(t *testing.T) {
	fast := NewRandDirect(0)
	ref := rand.New(rand.NewSource(0))
	for _, seed := range []int64{9, -4, 1 << 45, 6148914691236517205} {
		fast.NormFloat64()
		ref.NormFloat64()
		fast.Seed(seed)
		ref.Seed(seed)
		for i := 0; i < 2000; i++ {
			if g, w := math.Float64bits(fast.NormFloat64()), math.Float64bits(ref.NormFloat64()); g != w {
				t.Fatalf("seed %d draw %d: NormFloat64 bits %x, want %x", seed, i, g, w)
			}
		}
	}
}

// TestRandDirectMarkRewind pins the restart contract: Rewind reproduces the
// draw stream from the marked state.
func TestRandDirectMarkRewind(t *testing.T) {
	rng := NewRandDirect(17)
	want := make([]uint64, 200)
	for i := range want {
		want[i] = math.Float64bits(rng.NormFloat64())
	}
	rng.Rewind()
	for i := range want {
		if g := math.Float64bits(rng.NormFloat64()); g != want[i] {
			t.Fatalf("draw %d after Rewind: bits %x, want %x", i, g, want[i])
		}
	}
	// A mid-stream Mark moves the rewind point.
	rng.Seed(23)
	for i := 0; i < 50; i++ {
		rng.NormFloat64()
	}
	rng.Mark()
	a := rng.NormFloat64()
	rng.Rewind()
	if b := rng.NormFloat64(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("draw after mid-stream Mark/Rewind: %v, want %v", b, a)
	}
}

// TestRandRewindAllocFree pins the zero-allocation per-packet restart.
func TestRandRewindAllocFree(t *testing.T) {
	rng := NewRandDirect(7)
	if n := testing.AllocsPerRun(100, func() {
		rng.NormFloat64()
		rng.Rewind()
	}); n != 0 {
		t.Fatalf("Rewind allocates %v objects per run, want 0", n)
	}
}

// TestRandDirectFillNormPairs pins the batched materializer against
// per-sample NormFloat64 pairs from a *rand.Rand with the same seed.
func TestRandDirectFillNormPairs(t *testing.T) {
	fast := NewRandDirect(29)
	ref := rand.New(rand.NewSource(29))
	re, im := make([]float64, 333), make([]float64, 333)
	wre, wim := make([]float64, 333), make([]float64, 333)
	fast.FillNormPairs(re, im)
	for i := range wre {
		wre[i], wim[i] = ref.NormFloat64(), ref.NormFloat64()
	}
	for i := range re {
		if math.Float64bits(re[i]) != math.Float64bits(wre[i]) ||
			math.Float64bits(im[i]) != math.Float64bits(wim[i]) {
			t.Fatalf("pair %d: (%v,%v), want (%v,%v)", i, re[i], im[i], wre[i], wim[i])
		}
	}
}

func BenchmarkNormFloat64Direct(b *testing.B) {
	rng := NewRandDirect(3)
	for i := 0; i < b.N; i++ {
		rng.NormFloat64()
	}
}

func BenchmarkNormFloat64MathRand(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < b.N; i++ {
		rng.NormFloat64()
	}
}
