package data

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"fuseme/internal/block"
)

func TestTable2Registry(t *testing.T) {
	cases := []struct {
		d       Dataset
		rows    int
		nnz     int64
		density float64
	}{
		{MovieLens, 283_228, 27_753_444, 0.0017},
		{Netflix, 480_189, 100_480_507, 0.0118},
		{YahooMusic, 1_823_179, 717_872_016, 0.0029},
	}
	for _, c := range cases {
		if c.d.Rows != c.rows || c.d.NNZ != c.nnz {
			t.Errorf("%s: %d rows, %d nnz", c.d.Name, c.d.Rows, c.d.NNZ)
		}
		if math.Abs(c.d.Density()-c.density) > c.density*0.05 {
			t.Errorf("%s: density %v, want ~%v", c.d.Name, c.d.Density(), c.density)
		}
	}
	if len(Real()) != 3 {
		t.Fatal("Real() should list three datasets")
	}
}

func TestScaled(t *testing.T) {
	s := Netflix.Scaled(0.01)
	if s.Rows != 4801 || s.Cols != 177 {
		t.Fatalf("scaled dims %dx%d", s.Rows, s.Cols)
	}
	if math.Abs(s.Density()-Netflix.Density()) > 0.001 {
		t.Fatalf("density drifted: %v vs %v", s.Density(), Netflix.Density())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid scale accepted")
		}
	}()
	Netflix.Scaled(2)
}

func TestGenerate(t *testing.T) {
	d := MovieLens.Scaled(0.002)
	m := d.Generate(32, 42)
	if m.Rows != d.Rows || m.Cols != d.Cols {
		t.Fatal("generated dims wrong")
	}
	got := float64(m.NNZ())
	want := float64(d.NNZ)
	if got < want*0.7 || got > want*1.3 {
		t.Fatalf("generated nnz %v, want ~%v", got, want)
	}
	again := d.Generate(32, 42)
	if again.NNZ() != m.NNZ() {
		t.Fatal("generation not deterministic")
	}
}

func TestTripletsRoundTrip(t *testing.T) {
	m := block.RandomSparse(37, 29, 8, 0.1, 1, 5, 7)
	var buf bytes.Buffer
	if err := WriteTriplets(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTriplets(&buf, 0, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows != 37 || back.Cols != 29 {
		t.Fatalf("round trip dims %dx%d", back.Rows, back.Cols)
	}
	if !block.EqualApprox(m, back, 1e-12) {
		t.Fatal("round trip changed values")
	}
}

func TestReadTripletsFormats(t *testing.T) {
	src := `
% MatrixMarket-style comment
# 4 5
0,1,2.5
1	2	-3
3 4 1e2
`
	m, err := ReadTriplets(strings.NewReader(src), 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 4 || m.Cols != 5 {
		t.Fatalf("dims %dx%d", m.Rows, m.Cols)
	}
	if m.At(0, 1) != 2.5 || m.At(1, 2) != -3 || m.At(3, 4) != 100 {
		t.Fatal("values wrong")
	}
	// Explicit dims override the header.
	m, err = ReadTriplets(strings.NewReader(src), 10, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 10 || m.Cols != 10 {
		t.Fatal("explicit dims ignored")
	}
}

func TestReadTripletsErrors(t *testing.T) {
	cases := []string{
		"0,1",    // too few fields
		"a,1,2",  // bad row
		"0,b,2",  // bad col
		"0,1,x",  // bad value
		"-1,1,2", // negative index
	}
	for _, src := range cases {
		if _, err := ReadTriplets(strings.NewReader(src), 0, 0, 4); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
	// Index outside declared dims.
	if _, err := ReadTriplets(strings.NewReader("5,5,1"), 3, 3, 4); err == nil {
		t.Error("out-of-range index accepted")
	}
	// Empty stream without dims.
	if _, err := ReadTriplets(strings.NewReader("# comment only\n"), 0, 0, 4); err == nil {
		t.Error("empty stream accepted")
	}
}
