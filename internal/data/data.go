// Package data describes the datasets of the paper's evaluation (Table 2)
// and generates synthetic matrices with matching shapes. Rating values are
// uniform-random: every cost the paper measures (communication, memory,
// time) depends only on dimensions, non-zero counts and their distribution,
// and the paper's own synthetic data is uniform-random too.
package data

import (
	"fmt"

	"fuseme/internal/block"
)

// Dataset describes a rating matrix by shape and non-zero count.
type Dataset struct {
	Name string
	Rows int // users
	Cols int // items
	NNZ  int64
}

// The real datasets of Table 2.
var (
	MovieLens  = Dataset{Name: "MovieLens", Rows: 283_228, Cols: 58_098, NNZ: 27_753_444}
	Netflix    = Dataset{Name: "Netflix", Rows: 480_189, Cols: 17_770, NNZ: 100_480_507}
	YahooMusic = Dataset{Name: "YahooMusic", Rows: 1_823_179, Cols: 136_736, NNZ: 717_872_016}
)

// Real returns the three real datasets in the paper's size order.
func Real() []Dataset { return []Dataset{MovieLens, Netflix, YahooMusic} }

// Density returns NNZ / (Rows*Cols).
func (d Dataset) Density() float64 {
	return float64(d.NNZ) / (float64(d.Rows) * float64(d.Cols))
}

// Scaled shrinks the dataset by factor f (0 < f <= 1) in both dimensions,
// preserving density. Used to run real executions at laptop scale.
func (d Dataset) Scaled(f float64) Dataset {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("data: invalid scale %v", f))
	}
	rows := int(float64(d.Rows) * f)
	cols := int(float64(d.Cols) * f)
	if rows < 1 {
		rows = 1
	}
	if cols < 1 {
		cols = 1
	}
	out := Dataset{
		Name: fmt.Sprintf("%s@%.3g", d.Name, f),
		Rows: rows,
		Cols: cols,
	}
	out.NNZ = int64(d.Density() * float64(rows) * float64(cols))
	return out
}

// Generate materialises the dataset as a blocked sparse matrix with
// uniform-random pattern and values in [1, 5) (rating-like).
func (d Dataset) Generate(blockSize int, seed int64) *block.Matrix {
	return block.RandomSparse(d.Rows, d.Cols, blockSize, d.Density(), 1, 5, seed)
}
