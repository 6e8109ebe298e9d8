// Package randutil provides math/rand-compatible generators with cheap,
// bit-identical restarts. The RF block models restart their fixed-seed noise
// streams on every packet and the bench re-seeds its stage streams per
// packet; math/rand's Seed regenerates a 607-entry lagged-Fibonacci register
// from scratch (~tens of microseconds), which dominated the per-packet reset
// cost. Rand marks and rewinds its state by copy, and the arithmetic reseed
// (NewReseedingRand, Rand.Seed) computes a seeded register directly; both
// produce exactly the streams of rand.New(rand.NewSource(seed)).
package randutil

import (
	"math/rand"
	"reflect"
	"sync"
	"unsafe"
)

// rngLen is math/rand's feedback register length (stable since Go 1).
const rngLen = 607

// sourceState mirrors math/rand.rngSource. The layout is verified
// field-by-field against the runtime type before any unsafe access
// (sourceStateOf); on mismatch the reseed self-check and the snapshot cache
// stay disabled.
type sourceState struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

// sourceStateOf returns a direct view of rng's internal rngSource, or nil if
// the runtime layout does not match sourceState exactly.
func sourceStateOf(rng *rand.Rand) *sourceState {
	if rng == nil {
		return nil
	}
	srcField := reflect.ValueOf(rng).Elem().FieldByName("src")
	if !srcField.IsValid() || srcField.Kind() != reflect.Interface || srcField.IsNil() {
		return nil
	}
	ptr := srcField.Elem()
	if ptr.Kind() != reflect.Pointer || ptr.IsNil() {
		return nil
	}
	typ := ptr.Elem().Type()
	// fibSource (this package's clone) shares the exact field layout and
	// passes the same field-by-field verification below.
	if (typ.Name() != "rngSource" && typ.Name() != "fibSource") || typ.Kind() != reflect.Struct {
		return nil
	}
	want := reflect.TypeOf(sourceState{})
	if typ.NumField() != want.NumField() || typ.Size() != want.Size() {
		return nil
	}
	for i := 0; i < want.NumField(); i++ {
		got, exp := typ.Field(i), want.Field(i)
		if got.Name != exp.Name || got.Type != exp.Type || got.Offset != exp.Offset {
			return nil
		}
	}
	return (*sourceState)(unsafe.Pointer(ptr.Pointer()))
}

// fibSource is a drop-in replacement for math/rand's unexported rngSource:
// the same additive lagged-Fibonacci generator over a 607-entry register,
// stepping bit-identically, but seeded by the arithmetic reseed (or, when
// its self-check failed, by copying a cached post-seeding snapshot) instead
// of re-running the seeding procedure (which walks the full register
// through a multiplicative generator and dominates rand.NewSource at ~tens
// of microseconds). The field layout mirrors sourceState exactly.
type fibSource struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

// Uint64 replicates rngSource.Uint64: decrement both register walkers and
// feed the sum back. Signed overflow wraps, as in the original.
func (s *fibSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 replicates rngSource.Int63: the full step with the sign bit masked.
func (s *fibSource) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}

// Seed reproduces rngSource.Seed's post-seeding register bit for bit. The
// arithmetic reseed computes it directly (no per-seed cache), so arbitrary
// derived seeds — the per-packet stage seeds — reseed in a few microseconds
// without pinning snapshots; the snapshot cache remains as the fallback when
// the reseed self-check failed.
func (s *fibSource) Seed(seed int64) {
	if reseedOK {
		s.reseed(seed)
		return
	}
	st := snapshotFor(seed)
	if st == nil {
		// Unreachable by construction: a fibSource is only built after the
		// layout probe succeeded once, and snapshots persist for the process.
		panic("randutil: rngSource layout probe regressed after construction")
	}
	s.tap, s.feed, s.vec = st.tap, st.feed, st.vec
}

// seedSnapshots caches the post-seeding register per seed value for
// fibSource.Seed's fallback path. Entries are immutable once stored and live
// for the process, at ~5 KB each.
var seedSnapshots sync.Map // int64 -> *sourceState

// snapshotFor returns the post-seeding generator state for seed, seeding a
// throwaway math/rand source on first use. It returns nil when the runtime's
// rngSource layout does not match (the unsafe view is unavailable).
func snapshotFor(seed int64) *sourceState {
	if v, ok := seedSnapshots.Load(seed); ok {
		return v.(*sourceState)
	}
	src := sourceStateOf(rand.New(rand.NewSource(seed)))
	if src == nil {
		return nil
	}
	cp := *src
	v, _ := seedSnapshots.LoadOrStore(seed, &cp)
	return v.(*sourceState)
}
