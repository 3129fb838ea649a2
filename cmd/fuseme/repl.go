package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"fuseme"
)

const help = `commands:
  \gen NAME RxC [density]   bind a random matrix (sparse when density < 1)
  \load NAME PATH           bind a matrix from an .fme file
  \save NAME PATH           write a bound or computed matrix to an .fme file
  \engine NAME              switch engine: fuseme|systemds|distme|matfast|tensorflow
  \plan QUERY               show the physical plan for a query
  \stats                    metrics of the last executed query
  \ls                       list bound matrices
  \show NAME [n]            print the top-left n x n corner (default 8)
  \block N                  rebuild the session with block size N
  \help                     this text
  \quit                     exit
anything else is parsed as a query script; results are bound by name.`

type repl struct {
	out   io.Writer
	sess  *fuseme.Session
	bound map[string]*fuseme.Matrix
}

// runRepl is the repl mode, an interactive shell: declare inputs, run
// queries, inspect plans and switch engines without recompiling. It reads
// lines from in until \quit or the end of input and writes to out:
//
//	$ fuseme repl
//	fuseme> \gen X 4000x4000 0.01
//	fuseme> \gen U 4000x100
//	fuseme> \gen V 4000x100
//	fuseme> O = X * log(U %*% t(V) + 1e-3)
//	fuseme> \plan O = X * log(U %*% t(V) + 1e-3)
//	fuseme> \engine systemds
//	fuseme> \stats
func runRepl(in io.Reader, out io.Writer) error {
	r := &repl{out: out}
	if err := r.reset(64); err != nil {
		return err
	}
	defer func() { r.sess.Close() }()
	fmt.Fprintln(out, "FuseME interactive shell — \\help for commands")
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(out, "fuseme> ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == `\quit` || line == `\q` {
			return nil
		}
		if err := r.handle(line); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	}
}

// reset replaces the session with a fresh one of the given block size.
func (r *repl) reset(blockSize int) error {
	cfg := fuseme.LocalClusterConfig()
	cfg.BlockSize = blockSize
	sess, err := fuseme.NewSession(cfg)
	if err != nil {
		return err
	}
	if r.sess != nil {
		r.sess.Close()
	}
	r.sess = sess
	r.bound = map[string]*fuseme.Matrix{}
	return nil
}

func (r *repl) handle(line string) error {
	if !strings.HasPrefix(line, `\`) {
		return r.query(line)
	}
	fields := strings.Fields(line)
	switch fields[0] {
	case `\help`:
		fmt.Fprintln(r.out, help)
	case `\gen`:
		if len(fields) < 3 {
			return fmt.Errorf(`usage: \gen NAME RxC [density]`)
		}
		rows, cols, density, err := parseShape(fields[2], fields[3:])
		if err != nil {
			return err
		}
		m := bindRandom(r.sess, fields[1], rows, cols, density, int64(len(r.bound))+42)
		r.bound[fields[1]] = m
		fmt.Fprintf(r.out, "%s: %dx%d, nnz=%d\n", fields[1], rows, cols, m.NNZ())
	case `\load`:
		if len(fields) != 3 {
			return fmt.Errorf(`usage: \load NAME PATH`)
		}
		m, err := r.sess.LoadMatrix(fields[1], fields[2])
		if err != nil {
			return err
		}
		r.bound[fields[1]] = m
		rr, cc := m.Dims()
		fmt.Fprintf(r.out, "%s: %dx%d, nnz=%d\n", fields[1], rr, cc, m.NNZ())
	case `\save`:
		if len(fields) != 3 {
			return fmt.Errorf(`usage: \save NAME PATH`)
		}
		m, ok := r.bound[fields[1]]
		if !ok {
			return fmt.Errorf("no matrix %q", fields[1])
		}
		f, err := os.Create(fields[2])
		if err != nil {
			return err
		}
		if err := m.Write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	case `\engine`:
		if len(fields) != 2 {
			return fmt.Errorf(`usage: \engine NAME`)
		}
		if err := r.sess.SetEngine(fuseme.Engine(fields[1])); err != nil {
			return err
		}
		fmt.Fprintln(r.out, "engine:", r.sess.EngineName())
	case `\plan`:
		script := strings.TrimSpace(strings.TrimPrefix(line, `\plan`))
		if script == "" {
			return fmt.Errorf(`usage: \plan QUERY`)
		}
		desc, err := r.sess.Explain(script)
		if err != nil {
			return err
		}
		fmt.Fprint(r.out, desc)
	case `\stats`:
		fmt.Fprintln(r.out, r.sess.LastStats())
	case `\ls`:
		for _, n := range sortedNames(r.bound) {
			m := r.bound[n]
			rr, cc := m.Dims()
			fmt.Fprintf(r.out, "%-12s %dx%d nnz=%d density=%.4g\n", n, rr, cc, m.NNZ(), m.Density())
		}
	case `\show`:
		if len(fields) < 2 {
			return fmt.Errorf(`usage: \show NAME [n]`)
		}
		m, ok := r.bound[fields[1]]
		if !ok {
			return fmt.Errorf("no matrix %q", fields[1])
		}
		n := 8
		if len(fields) == 3 {
			if v, err := strconv.Atoi(fields[2]); err == nil {
				n = v
			}
		}
		rr, cc := m.Dims()
		for i := 0; i < n && i < rr; i++ {
			for j := 0; j < n && j < cc; j++ {
				fmt.Fprintf(r.out, "%9.4f ", m.At(i, j))
			}
			fmt.Fprintln(r.out)
		}
	case `\block`:
		if len(fields) != 2 {
			return fmt.Errorf(`usage: \block N`)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil || v <= 0 {
			return fmt.Errorf("bad block size %q", fields[1])
		}
		fmt.Fprintf(r.out, "block size %d; session reset (matrices cleared)\n", v)
		return r.reset(v)
	default:
		return fmt.Errorf("unknown command %s (\\help lists commands)", fields[0])
	}
	return nil
}

func (r *repl) query(script string) error {
	out, err := r.sess.Query(script)
	if err != nil {
		return err
	}
	for _, n := range sortedNames(out) {
		m := out[n]
		r.sess.Bind(n, m)
		r.bound[n] = m
		rr, cc := m.Dims()
		if rr*cc == 1 {
			fmt.Fprintf(r.out, "%s = %g\n", n, m.At(0, 0))
		} else {
			fmt.Fprintf(r.out, "%s: %dx%d, nnz=%d\n", n, rr, cc, m.NNZ())
		}
	}
	fmt.Fprintln(r.out, r.sess.LastStats())
	return nil
}
