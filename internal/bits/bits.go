// Package bits provides the bit-level utilities shared by the PHY: bit/byte
// packing in 802.11 transmission order (LSB first), pseudo-random payload
// generation, and bit-error counting.
package bits

import (
	"fmt"
	"math/rand"
)

// FromBytes expands data into bits, least-significant bit of each byte first,
// which is the transmission order used by IEEE 802.11.
func FromBytes(data []byte) []byte {
	return AppendFromBytes(make([]byte, 0, len(data)*8), data)
}

// AppendFromBytes is FromBytes appending to dst, the allocation-free form
// for callers that carry a bit buffer across packets.
func AppendFromBytes(dst, data []byte) []byte {
	for _, b := range data {
		for i := 0; i < 8; i++ {
			dst = append(dst, (b>>i)&1)
		}
	}
	return dst
}

// ToBytes packs bits (values 0/1, LSB first per byte) into bytes.
// len(bits) must be a multiple of 8.
func ToBytes(bits []byte) ([]byte, error) {
	if len(bits)%8 != 0 {
		return nil, fmt.Errorf("bits: length %d not a multiple of 8", len(bits))
	}
	out := make([]byte, len(bits)/8)
	for i, b := range bits {
		if b > 1 {
			return nil, fmt.Errorf("bits: value %d at index %d is not a bit", b, i)
		}
		out[i/8] |= b << (i % 8)
	}
	return out, nil
}

// Random returns n pseudo-random bits from the given source.
func Random(r *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(r.Intn(2))
	}
	return out
}

// RandomBytes returns n pseudo-random bytes from the given source.
func RandomBytes(r *rand.Rand, n int) []byte {
	return RandomBytesInto(nil, r, n)
}

// RandomBytesInto appends n uniform random octets to dst (usually dst[:0] of
// a reused buffer) and returns the extended slice. It draws exactly the same
// sequence as RandomBytes for the same generator state.
func RandomBytesInto(dst []byte, r *rand.Rand, n int) []byte {
	need := len(dst) + n
	if cap(dst) < need {
		grown := make([]byte, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for i := 0; i < n; i++ {
		dst = append(dst, byte(r.Intn(256)))
	}
	return dst
}

// CountErrors returns the number of positions where a and b differ, comparing
// up to the shorter length, plus the length difference (missing bits count as
// errors).
func CountErrors(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	errs := 0
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			errs++
		}
	}
	if len(a) > n {
		errs += len(a) - n
	}
	if len(b) > n {
		errs += len(b) - n
	}
	return errs
}

// Equal reports whether two bit slices are identical.
func Equal(a, b []byte) bool { return CountErrors(a, b) == 0 }

// Parity returns the even parity bit over the given bits (1 if the number of
// ones is odd).
func Parity(bits []byte) byte {
	var p byte
	for _, b := range bits {
		p ^= b & 1
	}
	return p
}

// Uint16LSB converts the low n bits of v into a bit slice, LSB first.
func Uint16LSB(v uint16, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		out[i] = byte((v >> i) & 1)
	}
	return out
}

// ParseUintLSB parses an LSB-first bit slice back into an unsigned value.
func ParseUintLSB(bits []byte) uint32 {
	var v uint32
	for i, b := range bits {
		v |= uint32(b&1) << i
	}
	return v
}
