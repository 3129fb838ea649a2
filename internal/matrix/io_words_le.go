//go:build amd64 || arm64 || loong64 || mips64le || ppc64le || riscv64

package matrix

import (
	"io"
	"unsafe"
)

// On a little-endian target with 64-bit int, the FME1 payload words are the
// slices' own memory: the writer hands them out as views and the reader
// reads into them, so a block's words are touched once on each side. Every
// other target converts word by word (io_words_other.go); the bytes are the
// same.

// wordBytes is the memory of v.
func wordBytes[T float64 | int](v []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// appendFloats appends v's words to the encoding: as a view of v.
func appendFloats(dst []byte, views [][]byte, v []float64) ([]byte, [][]byte) {
	if len(v) > 0 {
		views = append(views, wordBytes(v))
	}
	return dst, views
}

// appendInts appends v's words to the encoding: as a view of v.
func appendInts(dst []byte, views [][]byte, v []int) ([]byte, [][]byte) {
	if len(v) > 0 {
		views = append(views, wordBytes(v))
	}
	return dst, views
}

// readFloats fills dst with the little-endian words r yields next.
func readFloats(r io.Reader, dst []float64) error {
	_, err := io.ReadFull(r, wordBytes(dst))
	return err
}

// readInts fills dst with the little-endian words r yields next.
func readInts(r io.Reader, dst []int) error {
	_, err := io.ReadFull(r, wordBytes(dst))
	return err
}
