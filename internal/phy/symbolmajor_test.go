package phy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wlansim/internal/kernels"
)

// dispatchRestore reverts the kernel dispatch when the test ends.
func dispatchRestore(t *testing.T) {
	t.Helper()
	prev := kernels.DispatchName() != "purego"
	t.Cleanup(func() { kernels.SetDispatch(prev) })
}

func complexSlicesBitEqual(t *testing.T, ctx string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", ctx, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s: sample %d: %v != %v", ctx, i, got[i], want[i])
		}
	}
}

// TestSymbolMajorTransmitBitExact pins the transmitter's symbol-major DATA
// field against a per-symbol reference: each DATA symbol built from the
// scrambled, coded, punctured stream and modulated on its own by
// ModulateSymbolAppend. The waveform must be byte-identical for every rate,
// under both kernel dispatch tiers.
func TestSymbolMajorTransmitBitExact(t *testing.T) {
	dispatchRestore(t)
	rng := rand.New(rand.NewSource(71))
	psdu := make([]byte, 300)
	rng.Read(psdu)
	const seed = 0x2B
	for _, simd := range []bool{true, false} {
		kernels.SetDispatch(simd)
		for _, rate := range []int{6, 9, 12, 18, 24, 36, 48, 54} {
			tx, err := NewTransmitter(rate)
			if err != nil {
				t.Fatal(err)
			}
			tx.ScramblerSeed = seed
			frame, err := tx.Transmit(psdu)
			if err != nil {
				t.Fatal(err)
			}

			stream, nSym := DataFieldBits(psdu, tx.Mode, seed)
			punct, err := Puncture(ConvolutionalEncode(stream), tx.Mode.CodeRate)
			if err != nil {
				t.Fatal(err)
			}
			ncbps := tx.Mode.NCBPS()
			var want []complex128
			for n := 0; n < nSym; n++ {
				inter, err := Interleave(punct[n*ncbps:(n+1)*ncbps], tx.Mode)
				if err != nil {
					t.Fatal(err)
				}
				syms, err := MapBits(inter, tx.Mode.Modulation)
				if err != nil {
					t.Fatal(err)
				}
				spec, err := AssembleSpectrum(syms, n+1)
				if err != nil {
					t.Fatal(err)
				}
				if want, err = ModulateSymbolAppend(want, spec); err != nil {
					t.Fatal(err)
				}
			}
			dataStart := PreambleLen + SymbolLen
			complexSlicesBitEqual(t, fmt.Sprintf("%d Mbit/s DATA field", rate), frame.Samples[dataStart:], want)
		}
	}
}

// TestSymbolMajorModDemodBitExact pins the batched mod/demod primitives
// against their per-symbol forms on random spectra and symbols, including
// batch sizes around the four-lane grouping boundary, under both tiers.
func TestSymbolMajorModDemodBitExact(t *testing.T) {
	dispatchRestore(t)
	rng := rand.New(rand.NewSource(72))
	for _, simd := range []bool{true, false} {
		kernels.SetDispatch(simd)
		for _, nSym := range []int{1, 3, 4, 5, 8, 9} {
			specs := make([][]complex128, nSym)
			for n := range specs {
				specs[n] = make([]complex128, FFTSize)
				for i := range specs[n] {
					specs[n][i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
			}

			batch, _, err := ModulateSymbolsAppend(nil, specs, nil)
			if err != nil {
				t.Fatal(err)
			}
			var seq []complex128
			for _, spec := range specs {
				seq, err = ModulateSymbolAppend(seq, spec)
				if err != nil {
					t.Fatal(err)
				}
			}
			complexSlicesBitEqual(t, "modulate", batch, seq)

			// Demodulate the batch waveform both ways.
			syms := make([][]complex128, nSym)
			dst := make([][]complex128, nSym)
			for n := range syms {
				syms[n] = batch[n*SymbolLen : (n+1)*SymbolLen]
				dst[n] = make([]complex128, FFTSize)
			}
			if err := DemodulateSymbols(dst, syms); err != nil {
				t.Fatal(err)
			}
			for n := range syms {
				want, err := DemodulateSymbol(syms[n])
				if err != nil {
					t.Fatal(err)
				}
				complexSlicesBitEqual(t, "demodulate", dst[n], want)
			}
		}
	}
}
