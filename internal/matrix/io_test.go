package matrix

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// goldenFME1 pins the format: the hex strings are what matrix.WriteTo wrote
// at b56055c (bufio + the reflective encoding/binary writer), so files
// written by fuseme-gen and Matrix.Write before the codec was rewritten stay
// readable and every metered wire byte stays what it was.
var goldenFME1 = []struct {
	name string
	m    Mat
	hex  string
}{
	{"dense-2x3", NewDenseData(2, 3, []float64{1, -2.5, 0, 3.25, 1e-300, math.Copysign(0, -1)}),
		"31454d460002000000000000000300000000000000000000000000f03f00000000000004c000000000000000000000000000000a4059f3f8c21f6ea5010000000000000080"},
	{"dense-1x1", NewDenseData(1, 1, []float64{42}),
		"31454d4600010000000000000001000000000000000000000000004540"},
	{"dense-0x5", NewDense(0, 5),
		"31454d460000000000000000000500000000000000"},
	{"dense-3x0", NewDense(3, 0),
		"31454d460003000000000000000000000000000000"},
	{"csr-3x4", &CSR{Rows: 3, Cols: 4, RowPtr: []int{0, 2, 2, 3}, Col: []int{0, 3, 1}, Val: []float64{1.5, -2, 7}},
		"31454d46010300000000000000040000000000000003000000000000000000000000000000020000000000000002000000000000000300000000000000000000000000000003000000000000000100000000000000000000000000f83f00000000000000c00000000000001c40"},
	{"csr-1x1", &CSR{Rows: 1, Cols: 1, RowPtr: []int{0, 1}, Col: []int{0}, Val: []float64{-0.125}},
		"31454d4601010000000000000001000000000000000100000000000000000000000000000001000000000000000000000000000000000000000000c0bf"},
	{"csr-empty-2x2", NewCSR(2, 2),
		"31454d4601020000000000000002000000000000000000000000000000000000000000000000000000000000000000000000000000"},
	{"csr-0x7", NewCSR(0, 7),
		"31454d46010000000000000000070000000000000000000000000000000000000000000000"},
}

func TestGoldenFME1Bytes(t *testing.T) {
	for _, g := range goldenFME1 {
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendTo(nil, g.m); !bytes.Equal(got, want) {
			t.Errorf("%s: AppendTo wrote\n%x\nwant\n%x", g.name, got, want)
		}
		if n := EncodedSize(g.m); n != len(want) {
			t.Errorf("%s: EncodedSize = %d, want %d", g.name, n, len(want))
		}
		var buf bytes.Buffer
		if err := WriteTo(&buf, g.m); err != nil || !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: WriteTo wrote %x (err %v)", g.name, buf.Bytes(), err)
		}
		got, err := Decode(want)
		if err != nil {
			t.Errorf("%s: Decode: %v", g.name, err)
			continue
		}
		wireCheckEqual(t, got, g.m)
	}
}

// TestCodecRoundTripProperty: for random dense and CSR blocks of random
// shape (zero dimensions included), AppendTo behind an arbitrary prefix
// leaves the prefix alone, writes exactly EncodedSize bytes, and Decode gives
// back an equal matrix that shares no memory with the encoded bytes.
func TestCodecRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for trial := 0; trial < 300; trial++ {
		rows, cols := r.Intn(20), r.Intn(20)
		var m Mat
		if trial%2 == 0 {
			m = wireRandDense(r, rows, cols)
		} else {
			m = wireRandCSR(r, rows, cols, r.Float64())
		}
		prefix := make([]byte, r.Intn(9))
		r.Read(prefix)
		enc := AppendTo(append([]byte(nil), prefix...), m)
		if !bytes.HasPrefix(enc, prefix) || len(enc) != len(prefix)+EncodedSize(m) {
			t.Fatalf("trial %d: %d bytes behind a %d-byte prefix, EncodedSize %d", trial, len(enc), len(prefix), EncodedSize(m))
		}
		body := enc[len(prefix):]
		got, err := Decode(body)
		if err != nil {
			t.Fatalf("trial %d (%dx%d): %v", trial, rows, cols, err)
		}
		for i := range body { // the block owns its memory
			body[i] = 0xff
		}
		wireCheckEqual(t, got, m)
	}
}

// fme1 builds a payload from a header and 8-byte little-endian words.
func fme1(kind uint8, rows, cols int64, words ...uint64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, ioMagic)
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint64(b, uint64(rows))
	b = binary.LittleEndian.AppendUint64(b, uint64(cols))
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// TestDecodeRejectsCorrupt: every malformed payload is ErrCorruptBlock — in
// particular the headers that used to reach make() unchecked (a 21-byte
// payload claiming 2³¹×2³¹, a CSR claiming 2³³ non-zeros) and CSR structure
// that would index a kernel out of range.
func TestDecodeRejectsCorrupt(t *testing.T) {
	one := math.Float64bits(1)
	valid := fme1(kindCSR, 2, 3, 2, 0, 1, 2, 0, 2, one, one) // nnz=2, rowptr 0 1 2, col 0 2
	if _, err := Decode(valid); err != nil {
		t.Fatalf("valid CSR rejected: %v", err)
	}
	cases := map[string][]byte{
		"empty":                 {},
		"short header":          fme1(kindDense, 1, 1)[:20],
		"bad magic":             append([]byte{1, 2, 3, 4}, fme1(kindDense, 0, 0)[4:]...),
		"unknown kind":          fme1(7, 0, 0),
		"negative rows":         fme1(kindDense, -1, 1),
		"negative cols":         fme1(kindCSR, 1, -1, 0, 0, 0),
		"dense 2^31 x 2^31":     fme1(kindDense, 1<<31, 1<<31),
		"dense overflow to 0":   fme1(kindDense, 1<<32, 1<<32),
		"dense truncated":       fme1(kindDense, 2, 2, one, one, one),
		"dense trailing":        fme1(kindDense, 1, 1, one, one),
		"dense ragged":          append(fme1(kindDense, 1, 1, one), 0),
		"dense 0xn with data":   fme1(kindDense, 0, 4, one),
		"csr no nnz":            fme1(kindCSR, 0, 0),
		"csr nnz 2^33":          fme1(kindCSR, 1, 1, 1<<33, 0, 0),
		"csr negative nnz":      fme1(kindCSR, 1, 1, math.MaxUint64, 0, 0),
		"csr rows 2^40":         fme1(kindCSR, 1<<40, 1, 0, 0),
		"csr truncated":         valid[:len(valid)-8],
		"csr trailing":          append(append([]byte(nil), valid...), 0, 0, 0, 0, 0, 0, 0, 0),
		"csr rowptr[0] != 0":    fme1(kindCSR, 2, 3, 2, 1, 1, 2, 0, 2, one, one),
		"csr rowptr decreases":  fme1(kindCSR, 2, 3, 2, 0, 2, 1, 0, 2, one, one),
		"csr rowptr end != nnz": fme1(kindCSR, 2, 3, 2, 0, 1, 1, 0, 2, one, one),
		"csr rowptr past nnz":   fme1(kindCSR, 2, 3, 2, 0, 3, 2, 0, 2, one, one),
		"csr col == cols":       fme1(kindCSR, 2, 3, 2, 0, 1, 2, 0, 3, one, one),
		"csr col negative":      fme1(kindCSR, 2, 3, 2, 0, 1, 2, math.MaxUint64, 2, one, one),
	}
	for name, data := range cases {
		m, err := Decode(data)
		if !errors.Is(err, ErrCorruptBlock) {
			t.Errorf("%s: Decode = %v, %v; want ErrCorruptBlock", name, m, err)
		}
		if _, err := ReadFrom(bytes.NewReader(data)); !errors.Is(err, ErrCorruptBlock) {
			t.Errorf("%s: ReadFrom err = %v; want ErrCorruptBlock", name, err)
		}
	}
}
