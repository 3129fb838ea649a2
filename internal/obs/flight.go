package obs

import "fuseme/internal/cluster"

// FlightRecord is one executed stage's black-box entry, and the only
// per-stage type: the planner's prediction for the owning operator (chosen
// (P,Q,R) and the Eq. 2–5 cost terms) next to what actually happened when
// the stage ran. The engine fills the prediction half per operator, the
// executor copies it per stage and sets Meas to the runtime's stats of that
// stage, and Obs.StageDone puts the result in the stage_end event every
// consumer folds (Calibration.Fold, Registry.Fold, the journal). One record
// per stage execution, so iterative workloads produce one record per stage
// per iteration. The JSON tags are the journal's stage_end.flight and GET
// /v1/queries/{id}'s wire format.
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

	// Meas is the stage's own stats as its runtime reported them
	// (rt.Stage.Report), zero for a stage that failed before its tasks were
	// folded. Meas.SimSeconds is the stage clock: the Eq. 2 model under
	// simulation, real wall under TCP. Meas.TotalCommBytes is the traffic
	// comparable to PredNetBytes; ExtraWireBytes has no predicted twin.
	Meas cluster.Stats `json:"meas"`
}
