package obs

import (
	"io"
	"os"
)

// FlightRecord is one executed stage's black-box entry, and the only
// per-stage type: the planner's prediction for the owning operator (chosen
// (P,Q,R) and the Eq. 2–5 cost terms) next to what actually happened when
// the stage ran. The engine fills the prediction half per operator, the
// executor copies it per stage and fills the measured half from the
// runtime's stats of that stage, and Obs.StageDone derives every output from
// the result. One record per stage execution, so iterative workloads produce
// one line per stage per iteration. The JSON tags are the flight file's, the
// journal's stage_end.flight and GET /v1/queries/{id}'s wire format.
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

	// Dispatch: StealTasks counts tasks run away from their home node (on
	// either runtime), MeasFetchSeconds is wire wait inside task bodies
	// (summed over tasks), MeasTaskSeconds total task wall; the two seconds
	// fields are TCP-runtime measurements and zero under simulation.
	StealTasks       int64   `json:"steal_tasks,omitempty"`
	MeasFetchSeconds float64 `json:"meas_fetch_seconds,omitempty"`
	MeasTaskSeconds  float64 `json:"meas_task_seconds,omitempty"`
}

// NetBytes is the measured traffic comparable to the predicted NetEst:
// consolidation plus aggregation, excluding unmodelled extra wire bytes.
func (r FlightRecord) NetBytes() int64 {
	return r.MeasConsolidationBytes + r.MeasAggregationBytes
}

// ReadFlightRecords parses a JSONL stream of flight records.
func ReadFlightRecords(r io.Reader) ([]FlightRecord, error) {
	return readJSONL[FlightRecord](r, "flight record")
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
