package matrix

import (
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
// AppendTo is the only encoder and Decode the only decoder; files
// (WriteTo/ReadFrom), spec.EncodeBlock/DecodeBlock and the TCP runtime's
// block frames all go through them, so the bytes are the same everywhere.
//
// Decode trusts nothing in the header. A payload is accepted only when
//   - the magic and kind are known and rows, cols (and nnz) are non-negative;
//   - its length is exactly the length the header implies — checked by
//     division before anything is allocated, so a header claiming 2³¹×2³¹
//     costs a comparison, not a makeslice panic or a gigabyte;
//   - for CSR, RowPtr[0] == 0, RowPtr is non-decreasing, RowPtr[rows] == nnz
//     and every column index lies in [0, cols), so no kernel indexes out of
//     range on a block that came off the wire.
//
// Anything else is ErrCorruptBlock.
const (
	ioMagic    uint32 = 0x464d4531
	headerSize        = 4 + 1 + 8 + 8
	kindDense  uint8  = 0
	kindCSR    uint8  = 1
)

// ErrCorruptBlock is returned (wrapped, with the reason) by Decode and
// ReadFrom for bytes that are not a well-formed FME1 matrix.
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
	n, size := len(dst), EncodedSize(m)
	dst = slices.Grow(dst, size)[:n+size]
	hdr, b := dst[n:n+headerSize], dst[n+headerSize:]
	rows, cols := m.Dims()
	binary.LittleEndian.PutUint32(hdr, ioMagic)
	binary.LittleEndian.PutUint64(hdr[5:], uint64(rows))
	binary.LittleEndian.PutUint64(hdr[13:], uint64(cols))
	switch x := m.(type) {
	case *Dense:
		hdr[4] = kindDense
		putFloats(b, x.Data)
	case *CSR:
		hdr[4] = kindCSR
		binary.LittleEndian.PutUint64(b, uint64(len(x.Val)))
		b = putInts(b[8:], x.RowPtr)
		b = putInts(b, x.Col)
		putFloats(b, x.Val)
	}
	return dst
}

// Decode parses one FME1 matrix that occupies data exactly. The result owns
// its memory: nothing in it aliases data, so the caller may reuse the buffer
// at once.
func Decode(data []byte) (Mat, error) {
	if len(data) < headerSize {
		return nil, corrupt("%d bytes, header needs %d", len(data), headerSize)
	}
	if magic := binary.LittleEndian.Uint32(data); magic != ioMagic {
		return nil, corrupt("bad magic %#x", magic)
	}
	kind := data[4]
	rows64 := int64(binary.LittleEndian.Uint64(data[5:]))
	cols64 := int64(binary.LittleEndian.Uint64(data[13:]))
	if rows64 < 0 || cols64 < 0 || rows64 > math.MaxInt || cols64 > math.MaxInt {
		return nil, corrupt("dimensions %dx%d", rows64, cols64)
	}
	rows, cols := int(rows64), int(cols64)
	body := data[headerSize:]
	words := len(body) / 8
	if len(body)%8 != 0 {
		return nil, corrupt("%d payload bytes, not a multiple of 8", len(body))
	}
	switch kind {
	case kindDense:
		if !isProduct(words, rows, cols) {
			return nil, corrupt("dense %dx%d with %d payload bytes", rows, cols, len(body))
		}
		d := &Dense{Rows: rows, Cols: cols, Data: make([]float64, words)}
		getFloats(d.Data, body)
		return d, nil
	case kindCSR:
		return decodeCSR(rows, cols, body)
	}
	return nil, corrupt("unknown kind %d", kind)
}

// decodeCSR parses and validates the CSR payload (a whole number of 8-byte
// words) of a rows x cols matrix.
func decodeCSR(rows, cols int, body []byte) (Mat, error) {
	words := len(body)/8 - 1 // after the nnz field
	if words < 0 {
		return nil, corrupt("CSR without an nnz field")
	}
	nnz64 := int64(binary.LittleEndian.Uint64(body))
	// rows+1 + 2*nnz words must remain.
	if nnz64 < 0 || rows >= words || nnz64 > int64(words) || int64(rows+1)+2*nnz64 != int64(words) {
		return nil, corrupt("CSR %dx%d nnz %d with %d payload bytes", rows, cols, nnz64, len(body))
	}
	nnz := int(nnz64)
	s := &CSR{Rows: rows, Cols: cols,
		RowPtr: make([]int, rows+1),
		Col:    make([]int, nnz),
		Val:    make([]float64, nnz),
	}
	body = getInts(s.RowPtr, body[8:])
	body = getInts(s.Col, body)
	getFloats(s.Val, body)
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
