//go:build amd64 || arm64 || loong64 || mips64le || ppc64le || riscv64

package matrix

import "unsafe"

// On a little-endian target with 64-bit int, the FME1 payload words are the
// slices' own memory: each word loop of the codec is one copy. Every other
// target converts word by word (io_words_other.go); the bytes are the same.

// wordBytes is the memory of v.
func wordBytes[T float64 | int](v []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// putFloats writes v as little-endian words at the start of b.
func putFloats(b []byte, v []float64) { copy(b[:8*len(v)], wordBytes(v)) }

// putInts writes v as little-endian words at the start of b and returns the
// rest of b.
func putInts(b []byte, v []int) []byte {
	copy(b[:8*len(v)], wordBytes(v))
	return b[8*len(v):]
}

// getFloats fills dst from the little-endian words at the start of b.
func getFloats(dst []float64, b []byte) { copy(wordBytes(dst), b[:8*len(dst)]) }

// getInts fills dst from the little-endian words at the start of b and
// returns the rest of b.
func getInts(dst []int, b []byte) []byte {
	copy(wordBytes(dst), b[:8*len(dst)])
	return b[8*len(dst):]
}
