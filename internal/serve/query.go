package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"fuseme"
	"fuseme/internal/obs"
)

// InputSpec declares one query input. Exactly one of Dataset, Values or
// Random must be set.
type InputSpec struct {
	// Dataset references a server-side named dataset (RegisterDataset /
	// fuseme-serve -dataset).
	Dataset string `json:"dataset,omitempty"`
	// Rows/Cols size an inline input (with Values or Random).
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Values is an inline dense matrix, row-major, Rows x Cols values.
	Values []float64 `json:"values,omitempty"`
	// Random generates the input server-side (deterministic per seed).
	Random *RandomSpec `json:"random,omitempty"`
}

// RandomSpec generates a random input server-side.
type RandomSpec struct {
	Kind    string  `json:"kind"` // "dense" or "sparse"
	Density float64 `json:"density,omitempty"`
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
	Seed    int64   `json:"seed"`
}

// QueryRequest is the POST /v1/query body.
type QueryRequest struct {
	// Script is the DML-like query text (see docs/LANGUAGE.md).
	Script string `json:"script"`
	// Inputs binds the script's input names.
	Inputs map[string]InputSpec `json:"inputs,omitempty"`
	// MemBytes declares the submission's memory demand for admission
	// control; zero lets the server estimate max(floor, 2 x input bytes).
	MemBytes int64 `json:"mem_bytes,omitempty"`
	// OmitValues suppresses output matrix values in the response (shapes
	// and stats only).
	OmitValues bool `json:"omit_values,omitempty"`
}

// OutputMatrix is one named query result.
type OutputMatrix struct {
	Rows   int       `json:"rows"`
	Cols   int       `json:"cols"`
	NNZ    int       `json:"nnz"`
	Values []float64 `json:"values,omitempty"` // row-major, unless omit_values
}

// QueryResponse is the POST /v1/query success body.
type QueryResponse struct {
	Tenant       string                  `json:"tenant"`
	Outputs      map[string]OutputMatrix `json:"outputs"`
	Stats        fuseme.Stats            `json:"stats"`
	PlanCacheHit bool                    `json:"plan_cache_hit"`
	QueueMillis  float64                 `json:"queue_ms"`
	ExecMillis   float64                 `json:"exec_ms"`
}

// minDemandBytes is the memory demand of a submission whose inputs are
// small and which names no mem_bytes.
const minDemandBytes = 16 << 20

// demand estimates the submission's memory demand for admission control:
// the request's mem_bytes, else max(16 MiB, 2 x total input bytes).
func (s *Server) demand(req *QueryRequest, inputs map[string]*fuseme.Matrix) int64 {
	if req.MemBytes > 0 {
		return req.MemBytes
	}
	var in int64
	for _, m := range inputs {
		in += m.SizeBytes()
	}
	return max(2*in, minDemandBytes)
}

// materializeInputs resolves every input spec into a matrix.
func (s *Server) materializeInputs(req *QueryRequest) (map[string]*fuseme.Matrix, error) {
	out := make(map[string]*fuseme.Matrix, len(req.Inputs))
	bs := s.cfg.Cluster.BlockSize
	for name, spec := range req.Inputs {
		switch {
		case spec.Dataset != "":
			m, ok := s.dataset(spec.Dataset)
			if !ok {
				return nil, fmt.Errorf("input %q: unknown dataset %q", name, spec.Dataset)
			}
			out[name] = m
		case spec.Values != nil:
			m, err := fuseme.NewDenseMatrix(spec.Rows, spec.Cols, bs, spec.Values)
			if err != nil {
				return nil, fmt.Errorf("input %q: %w", name, err)
			}
			out[name] = m
		case spec.Random != nil:
			if spec.Rows < 1 || spec.Cols < 1 {
				return nil, fmt.Errorf("input %q: random input needs rows and cols", name)
			}
			switch spec.Random.Kind {
			case "dense", "":
				out[name] = fuseme.NewRandomDenseMatrix(spec.Rows, spec.Cols, bs,
					spec.Random.Lo, spec.Random.Hi, spec.Random.Seed)
			case "sparse":
				out[name] = fuseme.NewRandomSparseMatrix(spec.Rows, spec.Cols, bs,
					spec.Random.Density, spec.Random.Lo, spec.Random.Hi, spec.Random.Seed)
			default:
				return nil, fmt.Errorf("input %q: unknown random kind %q", name, spec.Random.Kind)
			}
		default:
			return nil, fmt.Errorf("input %q: one of dataset, values or random is required", name)
		}
	}
	return out, nil
}

// handleQuery is POST /v1/query: authenticate, admit, execute on a pooled
// session, respond.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, httpError{Error: "POST only"})
		return
	}
	tenant, err := s.authenticate(r)
	if err != nil {
		writeJSON(w, http.StatusUnauthorized, httpError{Error: err.Error()})
		return
	}
	// Atomically check the drain flag and count the submission as in
	// flight: Shutdown waits for every admitted submission.
	if !s.beginRequest() {
		writeRetryable(w, http.StatusServiceUnavailable, "serve: draining, not accepting new submissions")
		return
	}
	defer s.endRequest()

	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{Error: "decoding request: " + err.Error()})
		return
	}
	if req.Script == "" {
		writeJSON(w, http.StatusBadRequest, httpError{Error: "empty script"})
		return
	}
	inputs, err := s.materializeInputs(&req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{Error: err.Error()})
		return
	}

	// Register the query and open its event log: every lifecycle step from
	// here on lands in the journal under one query id, queryable from
	// GET /v1/queries/{id} while the query runs and after it finishes.
	demand := s.demand(&req, inputs)
	rec := s.queries.begin(tenant.Name, req.Script, demand)
	qlog := s.journal.Begin(rec.ID, tenant.Name)
	qlog.Emit(obs.Event{Type: obs.EvReceived})

	// Admission: reserve the submission's memory demand out of the tenant's
	// carve-out, queueing bounded-FIFO when exhausted.
	if used, depth := s.adm.Usage(tenant.Name); used+demand > tenant.QuotaBytes || depth > 0 {
		qlog.Emit(obs.Event{Type: obs.EvQueued, Cause: "memory"})
	}
	queueStart := time.Now()
	release, err := s.adm.Acquire(tenant.Name, demand, s.cfg.QueueDepth, s.cfg.QueueWait)
	s.reg.Gauge(obs.TenantSeries(obs.MTenantQueueDepth, tenant.Name)).Set(func() float64 {
		_, q := s.adm.Usage(tenant.Name)
		return float64(q)
	}())
	if err != nil {
		s.tenantCounter(obs.MTenantRejects, tenant.Name).Inc()
		qlog.Emit(obs.Event{Type: obs.EvFailed, Cause: "admission", Error: err.Error()})
		s.queries.finish(rec, "rejected", func(r *QueryRecord) { r.Error = err.Error() })
		code := http.StatusTooManyRequests
		if errors.Is(err, ErrTooLarge) {
			code = http.StatusRequestEntityTooLarge
			writeJSON(w, code, httpError{Error: err.Error()})
			return
		}
		writeRetryable(w, code, err.Error())
		return
	}
	defer release()
	queued := time.Since(queueStart)
	qlog.Emit(obs.Event{Type: obs.EvAdmitted, Seconds: queued.Seconds()})
	s.reg.Histogram(obs.TenantSeries(obs.MTenantQueueSeconds, tenant.Name)).Observe(queued.Seconds())
	s.queries.update(rec, func(r *QueryRecord) {
		r.State = "running"
		r.QueueMillis = float64(queued.Nanoseconds()) / 1e6
	})

	sess, err := s.acquireSession()
	if err != nil {
		qlog.Emit(obs.Event{Type: obs.EvFailed, Cause: "session", Error: err.Error()})
		s.queries.finish(rec, "failed", func(r *QueryRecord) { r.Error = err.Error() })
		writeJSON(w, http.StatusInternalServerError, httpError{Error: err.Error()})
		return
	}
	defer s.releaseSession(sess)

	sess.SetTenant(tenant.Name, tenant.Weight)
	sess.SetQueryLog(qlog)
	for name, m := range inputs {
		sess.Bind(name, m)
	}
	defer func() {
		for name := range inputs {
			sess.Unbind(name)
		}
	}()

	s.reg.Gauge(obs.MServeActive).Set(float64(s.active.Add(1)))
	execStart := time.Now()
	out, err := sess.Query(req.Script)
	execDur := time.Since(execStart)
	s.reg.Gauge(obs.MServeActive).Set(float64(s.active.Add(-1)))
	s.reg.Counter(obs.MServeQueries).Inc()
	s.reg.Histogram(obs.MServeQuerySeconds).Observe(execDur.Seconds())
	s.reg.Histogram(obs.TenantSeries(obs.MTenantQuerySeconds, tenant.Name)).Observe(queued.Seconds() + execDur.Seconds())
	s.tenantCounter(obs.MTenantQueries, tenant.Name).Inc()
	if err != nil {
		s.tenantCounter(obs.MTenantErrors, tenant.Name).Inc()
		s.queries.finish(rec, "failed", func(r *QueryRecord) {
			r.ExecMillis = float64(execDur.Nanoseconds()) / 1e6
			r.Error = err.Error()
		})
		code := http.StatusUnprocessableEntity
		if errors.Is(err, fuseme.ErrOutOfMemory) || errors.Is(err, fuseme.ErrTimeout) {
			code = http.StatusInsufficientStorage
		}
		writeJSON(w, code, httpError{Error: err.Error()})
		return
	}

	stats := sess.LastStats()
	hit := sess.LastPlanCacheHit()
	s.queries.finish(rec, "done", func(r *QueryRecord) {
		r.ExecMillis = float64(execDur.Nanoseconds()) / 1e6
		r.PlanCacheHit = hit
	})
	s.tenantCounter(obs.MTenantTasks, tenant.Name).Add(int64(stats.Tasks))
	s.tenantCounter(obs.MTenantBytes, tenant.Name).Add(stats.TotalCommBytes() + stats.ExtraWireBytes)
	if hit {
		s.tenantCounter(obs.MTenantPlanHits, tenant.Name).Inc()
	}

	resp := QueryResponse{
		Tenant:       tenant.Name,
		Outputs:      make(map[string]OutputMatrix, len(out)),
		Stats:        stats,
		PlanCacheHit: hit,
		QueueMillis:  float64(queued.Nanoseconds()) / 1e6,
		ExecMillis:   float64(execDur.Nanoseconds()) / 1e6,
	}
	for name, m := range out {
		rows, cols := m.Dims()
		om := OutputMatrix{Rows: rows, Cols: cols, NNZ: m.NNZ()}
		if !req.OmitValues {
			om.Values = m.Dense()
		}
		resp.Outputs[name] = om
	}
	writeJSON(w, http.StatusOK, resp)
}
