package kernels

import (
	"encoding/binary"
	"math"
	"testing"
)

// Fuzz differential targets for the kernels with the widest input domains:
// the fuzzer owns the raw float64 bit patterns, so it explores NaN
// payloads, infinities, denormals and huge magnitudes that the seeded
// Gaussian tests only sample. Every target asserts the unrolled kernel is
// bit-identical to its retained reference (modulo NaN payload bits, which
// IEEE-754 leaves unspecified — see bitsEqual). Seed corpora are checked
// in under testdata/fuzz/<FuzzName>/; scripts/check.sh runs each target
// for a short fixed duration on top of the seed-corpus replay that plain
// `go test` already performs.

// fuzzFloats reinterprets the fuzz payload as little-endian float64 words,
// capped at max values to bound per-input work.
func fuzzFloats(data []byte, max int) []float64 {
	n := len(data) / 8
	if n > max {
		n = max
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return out
}

// FuzzACSRun drives the dispatching ACS runner and the frozen per-step
// reference over the same fuzzer-chosen soft-metric stream from the
// decoder's standard 0/-Inf bank. Any non-finite metric must flip ACSRun
// onto the reference path for the rest of the run, so decisions and final
// metrics stay bit-identical even mid-stream of adversarial values.
func FuzzACSRun(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(1.5, -0.5, 0.25, 2.0))
	f.Add(seed(math.Inf(1), 1, -1, math.NaN(), 3, -3))
	f.Add(seed(0, 0, math.SmallestNonzeroFloat64, -1e308))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := fuzzFloats(data, 2*96)
		steps := len(vals) / 2
		if steps == 0 {
			return
		}
		soft := vals[:2*steps]

		var m0, s0, m1, s1 [64]float64
		acsInitBank(&m0)
		acsInitBank(&m1)
		got := make([]uint64, steps)
		want := make([]uint64, steps)
		gm := ACSRun(got, soft, &m0, &s0)
		wm := acsRunRef(want, soft, &m1, &s1)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("decision word %d: %#x != ref %#x", i, got[i], want[i])
			}
		}
		bitsEqual(t, "metric", gm[:], wm[:])
	})
}

// FuzzFFTStage drives the planar FFT butterfly stage — single-transform and
// lane-interleaved X4 — against the frozen references under both dispatch
// tiers. The fuzzer owns the stage geometry (half and block count, so the
// vector body, the half < 4 Go fallback and ragged shapes all get hit) and
// the raw float64 bit patterns of both the twiddle planes and the data
// planes, so the no-FMA / ordered-rounding contract is checked on NaN
// payloads, infinities and denormals the seeded tests only sample.
func FuzzFFTStage(f *testing.F) {
	seed := func(halfExp, blocks byte, vals ...float64) []byte {
		b := make([]byte, 2+8*len(vals))
		b[0], b[1] = halfExp, blocks
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[2+8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(2, 0, 1, 0, 0, -1, 0.5, -0.5, 0.25, 1.5, 2, -2, 3, -3, 4, -4, 5, -5))
	f.Add(seed(0, 1, math.Inf(1), math.NaN(), 1, -1, math.SmallestNonzeroFloat64, -1e308))
	f.Add(seed(5, 2, 0.7071067811865476, -0.7071067811865476, 1, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		half := 1 << (int(data[0]) % 6)
		blocks := int(data[1])%3 + 1
		n := 2 * half * blocks
		vals := fuzzFloats(data[2:], 2*half+2*n)
		if len(vals) < 2*half+2*n {
			return
		}
		wr, wi := vals[:half], vals[half:2*half]
		re0, im0 := vals[2*half:2*half+n], vals[2*half+n:2*half+2*n]

		// Lane-interleaved planes: four rotations of the payload frame so the
		// X4 lanes carry distinct chains.
		qre0 := make([]float64, 4*n)
		qim0 := make([]float64, 4*n)
		for i := 0; i < n; i++ {
			for l := 0; l < 4; l++ {
				qre0[4*i+l] = re0[(i+l)%n]
				qim0[4*i+l] = im0[(i+l)%n]
			}
		}

		prev := DispatchName() != "purego"
		defer SetDispatch(prev)
		for _, simd := range []bool{true, false} {
			SetDispatch(simd)

			gre := append([]float64(nil), re0...)
			gim := append([]float64(nil), im0...)
			wre := append([]float64(nil), re0...)
			wim := append([]float64(nil), im0...)
			FFTStage(gre, gim, wr, wi, half)
			FFTStageRef(wre, wim, wr, wi, half)
			bitsEqual(t, "stage re", gre, wre)
			bitsEqual(t, "stage im", gim, wim)

			qre := append([]float64(nil), qre0...)
			qim := append([]float64(nil), qim0...)
			qre2 := append([]float64(nil), qre0...)
			qim2 := append([]float64(nil), qim0...)
			FFTStageX4(qre, qim, wr, wi, half)
			FFTStageX4Ref(qre2, qim2, wr, wi, half)
			bitsEqual(t, "x4 re", qre, qre2)
			bitsEqual(t, "x4 im", qim, qim2)
		}
	})
}

// FuzzFIRCplx runs the 4-way-unrolled planar complex FIR and its reference
// over the same fuzzer-chosen taps and extended input. The fuzzer controls
// the tap count (first byte), so the unroll main body, the scalar tail and
// single-tap degenerate shapes all get exercised.
func FuzzFIRCplx(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(append([]byte{1}, make([]byte, 8*8)...))
	f.Add(append([]byte{24}, make([]byte, 8*120)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		tapN := int(data[0])%24 + 1
		vals := fuzzFloats(data[1:], 2*tapN+2*(tapN-1+64))
		if len(vals) < 2*tapN+2*tapN {
			return // need taps plus at least one output sample of history+frame
		}
		tr, ti := vals[:tapN], vals[tapN:2*tapN]
		rest := vals[2*tapN:]
		extN := len(rest) / 2
		n := extN - (tapN - 1)
		if n < 1 {
			return
		}
		xr, xi := rest[:extN], rest[extN:2*extN]

		gr := make([]float64, n)
		gi := make([]float64, n)
		wr := make([]float64, n)
		wi := make([]float64, n)
		FIRCplx(gr, gi, xr, xi, tr, ti)
		FIRCplxRef(wr, wi, xr, xi, tr, ti)
		bitsEqual(t, "re", gr, wr)
		bitsEqual(t, "im", gi, wi)
	})
}
