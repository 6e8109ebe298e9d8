// Package viterbi implements a maximum-likelihood decoder for the IEEE
// 802.11a rate-1/2, K=7 convolutional code (generators 133/171 octal), with
// hard- and soft-decision inputs and support for the punctured rates via
// erasure metrics.
package viterbi

import (
	"fmt"
	"math"

	"wlansim/internal/kernels"
)

const (
	constraint = 7
	numStates  = 1 << (constraint - 1) // 64
	genA       = 0o133
	genB       = 0o171
)

// The add-compare-select recursion iterates over *target* states. Target
// state s has exactly two predecessors p(r) = ((s<<1)|r)&63 for r in {0,1},
// and both transitions carry the same input bit s>>5 (the bit shifted into
// the encoder register). The branch outputs depend only on the 7-bit register
// value (s>>5)<<6 | p(r), so they collapse into two sign tables indexed by
// (s<<1)|r: +1 where the encoder emits coded bit 0 (the soft metric counts
// toward the path), -1 where it emits 1 (it counts against).
//
// The recursion itself lives in kernels.ACSRun (an unrolled, branchless
// butterfly schedule, bit-identical to the frozen kernels.ACSStepRef); the
// tables here document the trellis structure and anchor the structural tests.
var signA, signB [2 * numStates]float64

func parity7(v int) byte {
	v &= 0x7F
	v ^= v >> 4
	v ^= v >> 2
	v ^= v >> 1
	return byte(v & 1)
}

func init() {
	for s := 0; s < numStates; s++ {
		for r := 0; r < 2; r++ {
			p := ((s << 1) | r) & (numStates - 1)
			reg := (s>>5)<<6 | p
			signA[s<<1|r] = 1 - 2*float64(parity7(reg&genA))
			signB[s<<1|r] = 1 - 2*float64(parity7(reg&genB))
		}
	}
}

// Decoder decodes the clause-17 mother code. It carries reusable scratch
// (path metrics and bit-packed survivor decisions), so a long-lived decoder
// reaches a zero-allocation steady state via DecodeSoftInto. The zero value
// decodes an unterminated trellis; New returns the terminated configuration
// the 802.11a tail bits imply. A Decoder must not be shared between
// goroutines.
type Decoder struct {
	// Terminated indicates the trellis starts and ends in the zero state
	// (the transmitter appended tail bits). When false the decoder picks
	// the best final state.
	Terminated bool

	// metricA/metricB are the two path-metric banks swapped each step.
	metricA, metricB [numStates]float64
	// decisions holds one bit per state per step: bit s of decisions[t]
	// says which predecessor (r in p = ((s<<1)|r)&63) survived into state
	// s at step t. Grown on demand, retained across calls.
	decisions []uint64
	// soft is scratch for DecodeHard's metric conversion.
	soft []float64
}

// New returns a decoder for a terminated (tail-bited-to-zero) trellis.
func New() *Decoder { return &Decoder{Terminated: true} }

// DecodeSoft decodes a soft-metric stream of 2n values (A and B metric for
// each of the n trellis steps) into n bits. Positive metric values favor
// coded bit 0, negative favor 1, zero is an erasure (depunctured position).
// It returns the decoded bits including any tail bits the encoder appended.
func (d *Decoder) DecodeSoft(soft []float64) ([]byte, error) {
	return d.DecodeSoftInto(nil, soft)
}

// DecodeSoftInto is DecodeSoft writing the decoded bits into dst (grown if
// its capacity is short, reused otherwise). It allocates nothing when dst
// and the decoder scratch are already large enough.
//
//lint:hotpath
func (d *Decoder) DecodeSoftInto(dst []byte, soft []float64) ([]byte, error) {
	if len(soft)%2 != 0 {
		//lint:ignore escape error path only: the formatted length argument boxes
		return nil, fmt.Errorf("viterbi: soft stream length %d is odd", len(soft))
	}
	steps := len(soft) / 2
	if steps == 0 {
		return nil, nil
	}

	for i := range d.metricA {
		d.metricA[i] = math.Inf(-1)
	}
	d.metricA[0] = 0 // encoder starts in the zero state

	if cap(d.decisions) < steps {
		//lint:ignore escape one-time scratch grow, amortized across decodes
		d.decisions = make([]uint64, steps)
	}
	decisions := d.decisions[:steps]

	// The ACS recursion runs in the unrolled kernel; the 0/-Inf bank above
	// satisfies its no-NaN/no-+Inf entry condition. The returned bank holds
	// the final path metrics.
	metric := kernels.ACSRun(decisions, soft, &d.metricA, &d.metricB)

	// Select the final state.
	final := 0
	if !d.Terminated {
		best := math.Inf(-1)
		for s, m := range metric {
			if m > best {
				best, final = m, s
			}
		}
	} else if math.IsInf(metric[0], -1) {
		return nil, fmt.Errorf("viterbi: zero state unreachable in terminated trellis")
	}

	// Trace back. The decoded bit at step t is the bit shifted into the
	// register to reach the survivor state, i.e. its top register bit;
	// the decision bit recovers which predecessor to step back to.
	if cap(dst) < steps {
		//lint:ignore escape grows only when the caller's buffer is short
		dst = make([]byte, steps)
	}
	out := dst[:steps]
	state := final
	for t := steps - 1; t >= 0; t-- {
		out[t] = byte(state >> 5)
		r := (decisions[t] >> uint(state)) & 1
		state = ((state << 1) | int(r)) & (numStates - 1)
	}
	return out, nil
}

// DecodeHard decodes hard-decision coded bits (the interleaved A/B stream of
// the encoder). Bits beyond 1 are rejected.
//
//lint:hotpath
func (d *Decoder) DecodeHard(coded []byte) ([]byte, error) {
	if cap(d.soft) < len(coded) {
		//lint:ignore escape one-time scratch grow, amortized across decodes
		d.soft = make([]float64, len(coded))
	}
	soft := d.soft[:len(coded)]
	for i, b := range coded {
		switch b {
		case 0:
			soft[i] = 1
		case 1:
			soft[i] = -1
		default:
			//lint:ignore escape error path only: the formatted arguments box
			return nil, fmt.Errorf("viterbi: value %d at index %d is not a bit", b, i)
		}
	}
	return d.DecodeSoftInto(nil, soft)
}
