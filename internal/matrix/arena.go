package matrix

// Arena is storage for blocks that die together: the blocks one task fetched
// (ReadBlock takes each block — its struct and its slices — from the arena)
// and the blocks a task builds for itself and drops when it ends (Dense), and
// Reset makes all of it available again. Storage is handed out unzeroed
// (ReadBlock writes every word it takes; a block taken with Dense is the
// caller's to fill) and carved from one chunk per element type, which grows
// to the largest batch taken between two resets; from then on the arena
// allocates nothing. The zero value is ready to use. A nil *Arena gives each
// block fresh storage of its own.
//
// A block taken from an arena is valid until the next Reset; whoever resets
// must know that no block of the batch is still referenced.
type Arena struct {
	floats slab[float64]
	ints   slab[int]
	dense  []*Dense
	csr    []*CSR
	nd, nc int // structs handed out since the last Reset

	// hdr is where ReadBlock reads a header before it takes any storage.
	hdr [headerSize + 8]byte
}

// Reset makes everything the arena handed out available again.
func (a *Arena) Reset() {
	a.nd, a.nc = 0, 0
	a.floats.reset()
	a.ints.reset()
}

// Words returns the number of payload words handed out since the last Reset.
func (a *Arena) Words() int { return a.floats.used + a.ints.used }

// scratch returns room for the header and nnz field of a block.
func (a *Arena) scratch() []byte {
	if a == nil {
		return make([]byte, headerSize+8)
	}
	return a.hdr[:]
}

// Dense returns a rows x cols dense block whose Data is to be filled: its
// values are whatever the storage last held, zeros only from a nil arena.
func (a *Arena) Dense(rows, cols int) *Dense {
	if a == nil {
		return NewDense(rows, cols)
	}
	if a.nd == len(a.dense) {
		a.dense = append(a.dense, new(Dense))
	}
	d := a.dense[a.nd]
	a.nd++
	*d = Dense{Rows: rows, Cols: cols, Data: a.floats.take(rows * cols)}
	return d
}

// takeCSR returns a rows x cols CSR block of nnz non-zeros whose slices are
// to be filled.
func (a *Arena) takeCSR(rows, cols, nnz int) *CSR {
	if a == nil {
		return &CSR{Rows: rows, Cols: cols,
			RowPtr: make([]int, rows+1), Col: make([]int, nnz), Val: make([]float64, nnz)}
	}
	if a.nc == len(a.csr) {
		a.csr = append(a.csr, new(CSR))
	}
	s := a.csr[a.nc]
	a.nc++
	*s = CSR{Rows: rows, Cols: cols,
		RowPtr: a.ints.take(rows + 1), Col: a.ints.take(nnz), Val: a.floats.take(nnz)}
	return s
}

// slab hands out consecutive runs of one chunk.
type slab[T float64 | int] struct {
	buf       []T
	off, used int // next free element of buf; elements handed out since reset
}

// take returns n elements. When the chunk is full the slab moves to a fresh
// one at least twice as large; the blocks in the old one keep it alive until
// they die.
func (s *slab[T]) take(n int) []T {
	if n > len(s.buf)-s.off {
		s.buf, s.off = make([]T, max(n, 2*len(s.buf))), 0
	}
	v := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	s.used += n
	return v
}

// reset starts the slab over, on one chunk that holds the whole batch just
// ended.
func (s *slab[T]) reset() {
	if s.used > len(s.buf) {
		s.buf = make([]T, s.used)
	}
	s.off, s.used = 0, 0
}
