package matrix

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"unsafe"
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

// TestAppendViewsIsAppendTo: the header bytes AppendViews appends followed by
// its views are AppendTo's bytes, and the views are the block's own memory
// on a target whose words are (here, when any view is returned).
func TestAppendViewsIsAppendTo(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		var m Mat = wireRandDense(r, r.Intn(9), r.Intn(9))
		if trial%2 == 1 {
			m = wireRandCSR(r, r.Intn(9), r.Intn(9), r.Float64())
		}
		hdr, views := AppendViews([]byte{7}, nil, m)
		joined := hdr[1:]
		for _, v := range views {
			joined = append(joined, v...)
		}
		if !bytes.Equal(joined, AppendTo(nil, m)) {
			t.Fatalf("trial %d: header and views differ from AppendTo", trial)
		}
		if d, ok := m.(*Dense); ok && len(views) == 1 && &views[0][0] != (*byte)(unsafe.Pointer(&d.Data[0])) {
			t.Fatalf("trial %d: the payload view is not the block's memory", trial)
		}
	}
}

// TestReadBlockRefusesBeforeStorage: a header the frame length or the
// caller's dimension bound contradicts takes no storage and costs no more
// than its error, and a payload cut short is an error, not a block.
func TestReadBlockRefusesBeforeStorage(t *testing.T) {
	full := AppendTo(nil, NewDense(32, 32))
	for name, c := range map[string]struct {
		data         []byte
		size, maxDim int
	}{
		"dense 2^31 x 2^31":     {fme1(kindDense, 1<<31, 1<<31), headerSize, math.MaxInt},
		"claims MaxInt/2 bytes": {full, headerSize + 8*(math.MaxInt/16), math.MaxInt},
		"csr nnz 2^33":          {fme1(kindCSR, 1, 1, 1<<33, 0, 0), headerSize + 24, math.MaxInt},
		"above the bound":       {full, len(full), 16},
		"csr above the bound":   {AppendTo(nil, NewCSR(17, 2)), len(AppendTo(nil, NewCSR(17, 2))), 16},
	} {
		var a Arena
		var err error
		read := func() { _, err = ReadBlock(bytes.NewReader(c.data), c.size, c.maxDim, &a) }
		if got := allocBytes(read); got > 1024 {
			t.Errorf("%s: refusing allocates %d B", name, got)
		}
		if !errors.Is(err, ErrCorruptBlock) || a.Words() != 0 {
			t.Errorf("%s: err = %v, %d words taken; want ErrCorruptBlock before any", name, err, a.Words())
		}
	}
	if _, err := ReadBlock(bytes.NewReader(full[:len(full)-1]), len(full), 32, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("payload cut short: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestArenaReusesStorage: after a Reset the arena hands the same storage to
// blocks of the same shapes, allocates nothing for them, and grows to a
// larger batch in one chunk.
func TestArenaReusesStorage(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	blocks := []Mat{wireRandDense(r, 16, 16), wireRandCSR(r, 16, 16, 0.3), wireRandDense(r, 8, 16)}
	var encs [][]byte
	for _, m := range blocks {
		encs = append(encs, AppendTo(nil, m))
	}
	var a Arena
	batch := func() []Mat {
		a.Reset()
		var out []Mat
		for i, enc := range encs {
			m, err := ReadBlock(bytes.NewReader(enc), len(enc), 16, &a)
			if err != nil {
				t.Fatal(err)
			}
			wireCheckEqual(t, m, blocks[i])
			out = append(out, m)
		}
		return out
	}
	first := batch()
	second := batch()
	if &first[0].(*Dense).Data[0] != &second[0].(*Dense).Data[0] || first[1] != second[1] {
		t.Error("a second batch of the same shapes did not reuse the first's storage")
	}
	allowed := float64(len(encs)) // the bytes.Readers
	if strconv.IntSize == 32 {
		allowed += 2 // the CSR's int slices, each through a chunk
	}
	if n := testing.AllocsPerRun(20, func() {
		a.Reset()
		for _, enc := range encs {
			ReadBlock(bytes.NewReader(enc), len(enc), 16, &a)
		}
	}); n > allowed {
		t.Errorf("a warm arena batch allocates %.0f times", n)
	}
	blocks = append(blocks, wireRandDense(r, 16, 16))
	encs = append(encs, AppendTo(nil, blocks[3]))
	batch()
	if got := batch(); len(got) != 4 || a.floats.off != a.floats.used || a.floats.used > len(a.floats.buf) {
		t.Errorf("a larger batch is not served from one chunk: off %d, used %d, chunk %d", a.floats.off, a.floats.used, len(a.floats.buf))
	}
}

// allocBytes returns the bytes op allocates: the fewest over five runs.
// TotalAlloc counts the whole process, so another goroutine's allocation can
// land inside one run; op's own allocation is the same every run, so the
// minimum is exactly that.
func allocBytes(op func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 5 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		op()
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	return least
}
