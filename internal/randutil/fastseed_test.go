package randutil

import (
	"math/rand"
	"testing"
)

// TestFastPathActive pins the layout probe to the toolchain: if math/rand's
// internals ever change shape, this fails loudly instead of silently
// disabling the arithmetic reseed and the snapshot cache that rest on it.
func TestFastPathActive(t *testing.T) {
	if sourceStateOf(rand.New(rand.NewSource(42))) == nil {
		t.Fatal("randutil: rngSource layout probe failed for this math/rand")
	}
	if sourceStateOf(rand.New(&fibSource{})) == nil {
		t.Fatal("randutil: layout probe rejects the fibSource clone")
	}
}

// TestRestarterFastPathOnNewRand checks that the layout probe accepts the
// generators NewReseedingRand builds, so their register can be marked and
// restored by copy, and that restoring it replays the stream.
func TestRestarterFastPathOnNewRand(t *testing.T) {
	rng := NewReseedingRand(7)
	st := sourceStateOf(rng)
	if st == nil {
		t.Fatal("layout probe rejected a NewReseedingRand generator; restart by state copy is unavailable")
	}
	mark := *st
	want := make([]int64, 50)
	for i := range want {
		want[i] = rng.Int63()
	}
	*st = mark
	for i := range want {
		if g := rng.Int63(); g != want[i] {
			t.Fatalf("draw %d after restoring the marked state: %d, want %d", i, g, want[i])
		}
	}
}

// TestSnapshotFallbackMatchesMathRand pins fibSource.Seed's fallback path,
// taken when the arithmetic reseed self-check fails: a register restored
// from the per-seed snapshot cache must produce the stream of
// rand.New(rand.NewSource(seed)), on first use and from the cache.
func TestSnapshotFallbackMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, 101, -7, 1 << 40} {
		for pass := 0; pass < 2; pass++ {
			st := snapshotFor(seed)
			if st == nil {
				t.Fatal("snapshot cache unavailable: layout probe failed")
			}
			fast := rand.New(&fibSource{tap: st.tap, feed: st.feed, vec: st.vec})
			ref := rand.New(rand.NewSource(seed))
			for i := 0; i < 1000; i++ {
				if g, w := fast.Int63(), ref.Int63(); g != w {
					t.Fatalf("seed %d pass %d draw %d: %d, want %d", seed, pass, i, g, w)
				}
			}
		}
	}
}
