//go:build !(amd64 || arm64 || loong64 || mips64le || ppc64le || riscv64)

package matrix

import (
	"encoding/binary"
	"math"
)

// The FME1 payload words, converted one by one: the codec's word loops on a
// big-endian or 32-bit target (io_words_le.go has the others').

// putFloats writes v as little-endian words at the start of b.
func putFloats(b []byte, v []float64) {
	for _, f := range v {
		binary.LittleEndian.PutUint64(b, math.Float64bits(f))
		b = b[8:]
	}
}

// putInts writes v as little-endian words at the start of b and returns the
// rest of b.
func putInts(b []byte, v []int) []byte {
	for _, x := range v {
		binary.LittleEndian.PutUint64(b, uint64(x))
		b = b[8:]
	}
	return b
}

// getFloats fills dst from the little-endian words at the start of b.
func getFloats(dst []float64, b []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
}

// getInts fills dst from the little-endian words at the start of b and
// returns the rest of b.
func getInts(dst []int, b []byte) []byte {
	for i := range dst {
		dst[i] = int(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	return b
}
