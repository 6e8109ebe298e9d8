package phy

import "fmt"

// Symbol-major OFDM modulation and demodulation: instead of transforming one
// symbol at a time, the transmitter assembles every DATA-symbol spectrum
// first and the receiver slices every DATA symbol first, then both push the
// whole field through the plan's four-lane batched transforms
// (dsp.ForwardMany/InverseMany). Each lane of the batched pipeline carries
// one unchanged single-symbol butterfly chain, and the surrounding scale and
// cyclic-prefix loops are the exact per-symbol loops, so the symbol-major
// waveforms and spectra are byte-identical to ModulateSymbolAppend and
// DemodulateSymbolInto applied symbol by symbol — which the
// TestSymbolMajor*BitExact tests pin.

// ModulateSymbolsAppend appends one 80-sample OFDM symbol per spectrum to
// dst, batching the inverse transforms four symbols at a time. views is
// caller-retained scratch for the time-domain frame views (grown on demand,
// returned for reuse). Byte-identical to calling ModulateSymbolAppend on
// each spectrum in order.
func ModulateSymbolsAppend(dst []complex128, specs [][]complex128, views [][]complex128) ([]complex128, [][]complex128, error) {
	for _, spec := range specs {
		if len(spec) != FFTSize {
			return dst, views, fmt.Errorf("phy: spectrum length %d, want %d", len(spec), FFTSize)
		}
	}
	base := len(dst)
	need := base + len(specs)*SymbolLen
	if cap(dst) < need {
		grown := make([]complex128, base, need+need/2)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:need]
	if cap(views) < len(specs) {
		views = make([][]complex128, len(specs))
	}
	views = views[:len(specs)]
	for n, spec := range specs {
		td := dst[base+n*SymbolLen+CPLen : base+(n+1)*SymbolLen]
		copy(td, spec)
		views[n] = td
	}
	ofdmPlan.InverseMany(views)
	scale := complex(float64(FFTSize)/sqrt52, 0)
	for n := range views {
		td := views[n]
		for i := range td {
			td[i] *= scale
		}
		sym := dst[base+n*SymbolLen : base+(n+1)*SymbolLen]
		copy(sym[:CPLen], td[FFTSize-CPLen:])
	}
	return dst, views, nil
}

// DemodulateSymbols converts each 80-sample OFDM symbol in syms into its
// 64-bin spectrum in dst[i], batching the forward transforms four symbols at
// a time. Every dst[i] must already have FFTSize elements (the caller owns
// the backing store). Byte-identical to calling DemodulateSymbolInto on each
// symbol in order.
func DemodulateSymbols(dst, syms [][]complex128) error {
	if len(dst) < len(syms) {
		return fmt.Errorf("phy: %d spectrum buffers for %d symbols", len(dst), len(syms))
	}
	for i, sym := range syms {
		if len(sym) != SymbolLen {
			return fmt.Errorf("phy: symbol length %d, want %d", len(sym), SymbolLen)
		}
		if len(dst[i]) != FFTSize {
			return fmt.Errorf("phy: spectrum buffer length %d, want %d", len(dst[i]), FFTSize)
		}
		copy(dst[i], sym[CPLen:])
	}
	ofdmPlan.ForwardMany(dst[:len(syms)])
	scale := complex(sqrt52/float64(FFTSize), 0)
	for i := range syms {
		d := dst[i]
		for j := range d {
			d[j] *= scale
		}
	}
	return nil
}
