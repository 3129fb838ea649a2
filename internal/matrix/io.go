package matrix

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Binary matrix container format (the role Parquet-on-HDFS plays in the
// paper's implementation): a little-endian header followed by the payload.
//
//	magic  uint32  0x464d4531 ("FME1")
//	kind   uint8   0 = dense, 1 = CSR
//	rows   int64
//	cols   int64
//	dense payload: rows*cols float64
//	csr payload:   nnz int64, rowptr (rows+1) int64, col (nnz) int64, val (nnz) float64
//
// One codec, two halves. The writer is AppendViews: it appends the header
// and returns the payload as views of the block's own slices, so a socket
// writer sends the block with one writev and no staging copy; AppendTo joins
// the two. The reader is ReadBlock: it reads the header, validates it and
// then reads the payload straight into the block's storage, fresh or taken
// from an Arena; Decode is ReadBlock over a byte slice. Files
// (WriteTo/ReadFrom), spec.EncodeBlock/DecodeBlock and the TCP runtime's
// block frames all go through them, so the bytes are the same everywhere.
//
// The reader trusts nothing in the header. A block is accepted only when
//   - the magic and kind are known and rows, cols (and nnz) are non-negative
//     and no larger than the caller's bound;
//   - its length is exactly the length the header implies — checked by
//     division before any storage is taken, so a header claiming 2³¹×2³¹
//     costs a comparison, not a makeslice panic or a gigabyte;
//   - for CSR, RowPtr[0] == 0, RowPtr is non-decreasing, RowPtr[rows] == nnz
//     and every column index lies in [0, cols), so no kernel indexes out of
//     range on a block that came off the wire (checked after the read).
//
// Anything else is ErrCorruptBlock.
const (
	ioMagic    uint32 = 0x464d4531
	headerSize        = 4 + 1 + 8 + 8
	kindDense  uint8  = 0
	kindCSR    uint8  = 1
)

// ErrCorruptBlock is returned (wrapped, with the reason) by ReadBlock, Decode
// and ReadFrom for bytes that are not a well-formed FME1 matrix.
var ErrCorruptBlock = errors.New("matrix: corrupt FME1 block")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptBlock, fmt.Sprintf(format, args...))
}

// EncodedSize returns the number of bytes AppendTo writes for m.
func EncodedSize(m Mat) int {
	switch x := m.(type) {
	case *Dense:
		return headerSize + 8*len(x.Data)
	case *CSR:
		return headerSize + 8 + 8*len(x.RowPtr) + 16*len(x.Val)
	}
	panic(fmt.Sprintf("matrix: unsupported Mat implementation %T", m))
}

// AppendTo appends the FME1 encoding of m to dst and returns the extended
// slice. With cap(dst)-len(dst) >= EncodedSize(m) it allocates nothing.
func AppendTo(dst []byte, m Mat) []byte {
	var buf [3][]byte
	dst, views := AppendViews(slices.Grow(dst, EncodedSize(m)), buf[:0], m)
	for _, v := range views {
		dst = append(dst, v...)
	}
	return dst
}

// AppendViews appends the FME1 encoding of m to dst up to its payload words
// and appends those words to views as m's own memory: the encoding is dst's
// new bytes followed by the new views, in order, EncodedSize(m) bytes in all.
// The views alias m, which is immutable once published, so they stay valid
// as long as m does. On a big-endian or 32-bit target a slice's memory is
// not its encoding; there the words are encoded into dst and no view is
// appended.
func AppendViews(dst []byte, views [][]byte, m Mat) ([]byte, [][]byte) {
	rows, cols := m.Dims()
	dst = binary.LittleEndian.AppendUint32(dst, ioMagic)
	switch x := m.(type) {
	case *Dense:
		dst = append(dst, kindDense)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(rows))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(cols))
		return appendFloats(dst, views, x.Data)
	case *CSR:
		dst = append(dst, kindCSR)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(rows))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(cols))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(x.Val)))
		dst, views = appendInts(dst, views, x.RowPtr)
		dst, views = appendInts(dst, views, x.Col)
		return appendFloats(dst, views, x.Val)
	}
	panic(fmt.Sprintf("matrix: unsupported Mat implementation %T", m))
}

// Decode parses one FME1 matrix that occupies data exactly. The result owns
// its memory: nothing in it aliases data, so the caller may reuse the buffer
// at once.
func Decode(data []byte) (Mat, error) {
	return ReadBlock(bytes.NewReader(data), len(data), math.MaxInt, nil)
}

// ReadBlock reads one FME1 matrix of exactly size bytes from r, with rows
// and cols at most maxDim, into storage taken from a — a nil Arena gives
// fresh storage the block owns. Every header check happens before any
// storage is taken; the payload is read straight into the block's slices and
// the CSR structure checked after it. A block that fails a check is
// ErrCorruptBlock, a payload cut short r's error (io.ErrUnexpectedEOF); in
// either case r may be left inside the block.
func ReadBlock(r io.Reader, size, maxDim int, a *Arena) (Mat, error) {
	if size < headerSize {
		return nil, corrupt("%d bytes, header needs %d", size, headerSize)
	}
	hdr := a.scratch()
	if _, err := io.ReadFull(r, hdr[:headerSize]); err != nil {
		return nil, err
	}
	if magic := binary.LittleEndian.Uint32(hdr); magic != ioMagic {
		return nil, corrupt("bad magic %#x", magic)
	}
	kind := hdr[4]
	rows64 := int64(binary.LittleEndian.Uint64(hdr[5:]))
	cols64 := int64(binary.LittleEndian.Uint64(hdr[13:]))
	if rows64 < 0 || cols64 < 0 || rows64 > math.MaxInt || cols64 > math.MaxInt {
		return nil, corrupt("dimensions %dx%d", rows64, cols64)
	}
	rows, cols := int(rows64), int(cols64)
	if rows > maxDim || cols > maxDim {
		return nil, corrupt("%dx%d in a block of at most %d", rows, cols, maxDim)
	}
	body := size - headerSize
	words := body / 8
	if body%8 != 0 {
		return nil, corrupt("%d payload bytes, not a multiple of 8", body)
	}
	switch kind {
	case kindDense:
		if !isProduct(words, rows, cols) {
			return nil, corrupt("dense %dx%d with %d payload bytes", rows, cols, body)
		}
		d := a.Dense(rows, cols)
		if err := readFloats(r, d.Data); err != nil {
			return nil, err
		}
		return d, nil
	case kindCSR:
		return readCSR(r, rows, cols, words, hdr[headerSize:], a)
	}
	return nil, corrupt("unknown kind %d", kind)
}

// readCSR reads and validates the CSR payload (words 8-byte words) of a
// rows x cols matrix, reading the nnz field into field.
func readCSR(r io.Reader, rows, cols, words int, field []byte, a *Arena) (Mat, error) {
	words-- // after the nnz field
	if words < 0 {
		return nil, corrupt("CSR without an nnz field")
	}
	if _, err := io.ReadFull(r, field[:8]); err != nil {
		return nil, err
	}
	nnz64 := int64(binary.LittleEndian.Uint64(field))
	// rows+1 + 2*nnz words must remain.
	if nnz64 < 0 || rows >= words || nnz64 > int64(words) || int64(rows+1)+2*nnz64 != int64(words) {
		return nil, corrupt("CSR %dx%d nnz %d with %d payload bytes", rows, cols, nnz64, 8*(words+1))
	}
	nnz := int(nnz64)
	s := a.takeCSR(rows, cols, nnz)
	if err := readInts(r, s.RowPtr); err != nil {
		return nil, err
	}
	if err := readInts(r, s.Col); err != nil {
		return nil, err
	}
	if err := readFloats(r, s.Val); err != nil {
		return nil, err
	}
	if s.RowPtr[0] != 0 {
		return nil, corrupt("CSR RowPtr[0] = %d", s.RowPtr[0])
	}
	prev := 0
	for i, p := range s.RowPtr {
		if p < prev {
			return nil, corrupt("CSR RowPtr decreases at row %d", i)
		}
		prev = p
	}
	if prev != nnz {
		return nil, corrupt("CSR RowPtr ends at %d, nnz is %d", prev, nnz)
	}
	for _, c := range s.Col {
		if uint(c) >= uint(cols) {
			return nil, corrupt("CSR column %d outside [0,%d)", c, cols)
		}
	}
	return s, nil
}

// isProduct reports whether n == a*b for non-negative a and b, without
// forming a product that can overflow.
func isProduct(n, a, b int) bool {
	if a == 0 || b == 0 {
		return n == 0
	}
	return b <= n/a && a*b == n
}

// WriteTo serialises m to w in the FME1 binary format, as one Write.
func WriteTo(w io.Writer, m Mat) error {
	switch m.(type) {
	case *Dense, *CSR:
	default:
		return fmt.Errorf("matrix: unsupported Mat implementation %T", m)
	}
	_, err := w.Write(AppendTo(nil, m))
	return err
}

// ReadFrom deserialises a matrix written by WriteTo. It reads r to EOF: the
// matrix must be all there is (the header alone does not say how much of a
// hostile stream to trust).
func ReadFrom(r io.Reader) (Mat, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
