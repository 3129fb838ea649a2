//go:build !(amd64 || arm64 || loong64 || mips64le || ppc64le || riscv64)

package matrix

import (
	"encoding/binary"
	"io"
	"math"
	"strconv"
	"unsafe"
)

// The FME1 payload words, converted one by one: the codec's word loops on a
// big-endian or 32-bit target (io_words_le.go has the others'). The writer
// encodes the words into the byte slice and hands out no view; the reader
// reads them into the block's memory and converts them there.

// appendFloats appends v's words to the encoding: into dst.
func appendFloats(dst []byte, views [][]byte, v []float64) ([]byte, [][]byte) {
	for _, f := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst, views
}

// appendInts appends v's words to the encoding: into dst.
func appendInts(dst []byte, views [][]byte, v []int) ([]byte, [][]byte) {
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
	}
	return dst, views
}

// readFloats fills dst with the little-endian words r yields next: read
// into dst's own memory, then byte-swapped in place.
func readFloats(r io.Reader, dst []float64) error {
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 8*len(dst))
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return nil
}

// readInts fills dst with the little-endian words r yields next: in place
// like readFloats where int has 64 bits; a 32-bit int is narrower than its
// word, so there the words come through a chunk of their own.
func readInts(r io.Reader, dst []int) error {
	if strconv.IntSize == 64 {
		b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 8*len(dst))
		if _, err := io.ReadFull(r, b); err != nil {
			return err
		}
		for i := range dst {
			dst[i] = int(binary.LittleEndian.Uint64(b[8*i:]))
		}
		return nil
	}
	buf := make([]byte, 8*min(len(dst), 512))
	for len(dst) > 0 {
		n := min(len(dst), len(buf)/8)
		if _, err := io.ReadFull(r, buf[:8*n]); err != nil {
			return err
		}
		for i := range dst[:n] {
			dst[i] = int(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		dst = dst[n:]
	}
	return nil
}
