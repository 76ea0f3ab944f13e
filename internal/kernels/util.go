package kernels

import (
	"encoding/binary"
	"math"
)

// f64le reads a little-endian float64 from the first 8 bytes of b.
func f64le(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// f64bits returns the IEEE-754 bits of v.
func f64bits(v float64) uint64 { return math.Float64bits(v) }

// putF64 appends v to out as little-endian bytes.
func putF64(out []byte, v float64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
	return append(out, tmp[:]...)
}

// SWAR (SIMD within a register) constants: a uint64 read as four 16-bit
// lanes, each holding one byte-sized value or a small sum of them.
const (
	lanes1   = 0x0001_0001_0001_0001 // 1 in every lane
	lanes8   = 0x00FF_00FF_00FF_00FF // the low byte of every lane
	lanes256 = 0x0100_0100_0100_0100 // bit 8 of every lane
)

// geDiff returns, for lanes holding bytes, a-b in the lanes where
// a >= b and 0 in the others. Setting bit 8 of a first keeps every lane's
// difference non-negative, so no lane borrows from its neighbour.
func geDiff(a, b uint64) uint64 {
	t := (a | lanes256) - b
	return t & ((t >> 8 & lanes1) * 0xFF)
}

// min16 and max16 are the lane-wise minimum and maximum of byte lanes.
func min16(a, b uint64) uint64 { return a - geDiff(a, b) }
func max16(a, b uint64) uint64 { return b + geDiff(a, b) }
