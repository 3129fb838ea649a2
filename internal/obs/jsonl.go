package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// JSONL appends values to a writer as JSON lines: the one sink behind the
// flight file and the journal file. Safe for concurrent use; a nil *JSONL
// absorbs every call. Write errors are latched: the first one stops further
// output and surfaces from Flush. The underlying writer stays the caller's —
// Flush pushes buffered lines to it, nothing here closes it.
type JSONL struct {
	mu  sync.Mutex
	w   *bufio.Writer
	err error
}

// NewJSONL writes lines to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriter(w)}
}

// Write appends v as one line.
func (s *JSONL) Write(v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	line, err := json.Marshal(v)
	if err == nil {
		_, err = s.w.Write(append(line, '\n'))
	}
	s.err = err
}

// Flush forces buffered lines to the underlying writer and returns the
// latched error, if any.
func (s *JSONL) Flush() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = s.w.Flush()
	}
	return s.err
}

// readJSONL parses a JSON-lines stream into values of type T, skipping blank
// lines; what names the line kind in errors ("flight record"). A malformed
// or truncated line, or one over 1 MiB, is an error — never a silent stop.
func readJSONL[T any](r io.Reader, what string) ([]T, error) {
	var out []T
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var v T
		if err := json.Unmarshal(line, &v); err != nil {
			return nil, fmt.Errorf("obs: %s %d: %w", what, len(out)+1, err)
		}
		out = append(out, v)
	}
	return out, sc.Err()
}
