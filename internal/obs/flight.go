package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// FlightRecord is one executed stage's black-box entry: the planner's
// prediction for the owning operator (chosen (P,Q,R) and the Eq. 2–5 cost
// terms) next to what actually happened when the stage ran. One record is
// written per stage execution, so iterative workloads produce one line per
// stage per iteration.
type FlightRecord struct {
	Stage string `json:"stage"`
	Op    string `json:"op"`
	Kind  string `json:"kind,omitempty"`
	P     int    `json:"p,omitempty"`
	Q     int    `json:"q,omitempty"`
	R     int    `json:"r,omitempty"`
	Tasks int    `json:"tasks"`

	// Predicted: the optimizer's estimates for the operator, zero for
	// bookkeeping stages that never had a prediction.
	PredNetBytes int64 `json:"pred_net_bytes"`
	PredComFlops int64 `json:"pred_com_flops"`
	PredMemBytes int64 `json:"pred_mem_bytes"`

	// Measured: the stage's metered execution.
	MeasWallSeconds        float64 `json:"meas_wall_seconds"`
	MeasConsolidationBytes int64   `json:"meas_consolidation_bytes"`
	MeasAggregationBytes   int64   `json:"meas_aggregation_bytes"`
	MeasExtraWireBytes     int64   `json:"meas_extra_wire_bytes"`
	MeasFlops              int64   `json:"meas_flops"`
	MeasPeakTaskMemBytes   int64   `json:"meas_peak_task_mem_bytes"`
	CacheHits              int64   `json:"cache_hits"`
	CacheMisses            int64   `json:"cache_misses"`
	CacheSavedBytes        int64   `json:"cache_saved_bytes"`

	// Pipelined execution: how much of the stage's wire time ran hidden
	// under kernels. MeasFetchSeconds is wire wait inside task bodies
	// (summed over tasks), MeasPrefetchSeconds wire time overlapped with
	// kernels, MeasTaskSeconds total task wall; OverlapRatio is
	// prefetch/(prefetch+fetch) — 1.0 means every transferred byte was
	// hidden, 0 means every transfer stalled its task. All seven fields are
	// TCP-runtime measurements and zero under simulation.
	PrefetchBlocks      int64   `json:"prefetch_blocks,omitempty"`
	PrefetchBytes       int64   `json:"prefetch_bytes,omitempty"`
	StealTasks          int64   `json:"steal_tasks,omitempty"`
	MeasFetchSeconds    float64 `json:"meas_fetch_seconds,omitempty"`
	MeasPrefetchSeconds float64 `json:"meas_prefetch_seconds,omitempty"`
	MeasTaskSeconds     float64 `json:"meas_task_seconds,omitempty"`
	OverlapRatio        float64 `json:"overlap_ratio,omitempty"`
}

// FlightRecorder appends stage records to a writer as JSON lines. Safe for
// concurrent use; a nil *FlightRecorder absorbs every call. Write errors are
// latched: the first one stops further output and surfaces from Err/Close.
type FlightRecorder struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer // underlying file, if OpenFlightRecorder created one
	n   int
	err error
}

// NewFlightRecorder writes records to w.
func NewFlightRecorder(w io.Writer) *FlightRecorder {
	return &FlightRecorder{w: bufio.NewWriter(w)}
}

// OpenFlightRecorder creates (or truncates) the JSONL file at path.
func OpenFlightRecorder(path string) (*FlightRecorder, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: flight recorder: %w", err)
	}
	fr := NewFlightRecorder(f)
	fr.c = f
	return fr, nil
}

// Record appends one stage record.
func (f *FlightRecorder) Record(rec FlightRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return
	}
	line, err := json.Marshal(rec)
	if err == nil {
		_, err = f.w.Write(append(line, '\n'))
	}
	if err != nil {
		f.err = err
		return
	}
	f.n++
}

// Count returns how many records were written.
func (f *FlightRecorder) Count() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// Err returns the latched write error, if any.
func (f *FlightRecorder) Err() error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Flush forces buffered records to the underlying writer.
func (f *FlightRecorder) Flush() error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = f.w.Flush()
	}
	return f.err
}

// Close flushes and releases the underlying file (when one was opened).
func (f *FlightRecorder) Close() error {
	if f == nil {
		return nil
	}
	err := f.Flush()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.c != nil {
		if cerr := f.c.Close(); err == nil {
			err = cerr
		}
		f.c = nil
	}
	return err
}

// ReadFlightRecords parses a JSONL stream of flight records.
func ReadFlightRecords(r io.Reader) ([]FlightRecord, error) {
	var out []FlightRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec FlightRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("obs: flight record %d: %w", len(out)+1, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// ReadFlightFile is ReadFlightRecords on a file path.
func ReadFlightFile(path string) ([]FlightRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFlightRecords(f)
}
