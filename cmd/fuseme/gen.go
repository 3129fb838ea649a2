package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fuseme/internal/block"
	"fuseme/internal/data"
	"fuseme/internal/matrix"
)

// runGen is the gen mode. It writes a matrix for FuseME experiments — a
// synthetic sparse or dense one, or a shape-faithful stand-in for one of the
// paper's real datasets (Table 2) — in the engine's binary format (.fme) or
// as row,col,value triplet text, to -o or stdout, and reports a dataset's
// generated shape on stderr:
//
//	fuseme gen -dataset netflix -scale 0.01 -o netflix.fme
//	fuseme gen -rows 100000 -cols 100000 -density 0.001 -format triplets -o x.csv
//
// Every flag is checked before anything is generated or a file is created.
func runGen(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fuseme gen", flag.ExitOnError)
	dataset := fs.String("dataset", "", "real dataset shape: movielens|netflix|yahoomusic")
	scale := fs.Float64("scale", 1, "dimension scale factor in (0,1]")
	rows := fs.Int("rows", 0, "rows (synthetic mode)")
	cols := fs.Int("cols", 0, "cols (synthetic mode)")
	density := fs.Float64("density", 1, "density in (0,1] (synthetic mode)")
	blockSize := fs.Int("block", 1000, "block size")
	seed := fs.Int64("seed", 42, "random seed")
	format := fs.String("format", "fme", "output format: fme|triplets")
	out := fs.String("o", "", "output path (default stdout)")
	fs.Parse(args)

	var d data.Dataset
	for _, known := range data.Real() {
		if strings.EqualFold(known.Name, *dataset) {
			d = known
		}
	}
	switch {
	case *dataset != "" && d.Name == "":
		return fmt.Errorf("unknown -dataset %q", *dataset)
	case !(*scale > 0 && *scale <= 1):
		return fmt.Errorf("-scale %v must be in (0,1]", *scale)
	case *blockSize <= 0:
		return fmt.Errorf("-block %d must be positive", *blockSize)
	case *format != "fme" && *format != "triplets":
		return fmt.Errorf("unknown -format %q, want fme or triplets", *format)
	case *dataset == "" && (*rows <= 0 || *cols <= 0):
		return fmt.Errorf("specify -dataset or -rows/-cols")
	case *dataset == "" && !(*density > 0 && *density <= 1):
		return fmt.Errorf("-density %v must be in (0,1]", *density)
	}

	var m *block.Matrix
	switch {
	case *dataset != "":
		if *scale != 1 {
			d = d.Scaled(*scale)
		}
		fmt.Fprintf(stderr, "generating %s: %dx%d, ~%d non-zeros\n", d.Name, d.Rows, d.Cols, d.NNZ)
		m = d.Generate(*blockSize, *seed)
	case *density < 1: // the rule of bindRandom
		m = block.RandomSparse(*rows, *cols, *blockSize, *density, 1, 5, *seed)
	default:
		m = block.RandomDense(*rows, *cols, *blockSize, 0, 1, *seed)
	}
	write := func(w io.Writer) error {
		if *format == "triplets" {
			return data.WriteTriplets(w, m)
		}
		return matrix.WriteTo(w, m.ToMat())
	}
	if *out == "" {
		return write(stdout)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
