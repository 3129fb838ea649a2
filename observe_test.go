package fuseme

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"fuseme/internal/cluster"
	"fuseme/internal/obs"
)

const obsTestScript = "O = X * log(U %*% t(V) + 1e-3)"

// TestSessionTracingAndMetricsSim runs a query with full observability on
// the sim backend and checks the three collectors end to end: span structure
// (plan > stage > task with cuboid attributes), metric counters, and the
// calibration report.
func TestSessionTracingAndMetricsSim(t *testing.T) {
	cfg := LocalClusterConfig()
	cfg.BlockSize = 16
	sess, err := NewSession(cfg, WithTracing(), WithMetricsAddr(""))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	bindTestInputs(sess)
	if _, err := sess.Query(obsTestScript); err != nil {
		t.Fatal(err)
	}

	// Span structure: one plan span, at least one stage span carrying the
	// cuboid (P,Q,R) attributes, and task spans nested inside stages.
	events := traceSpans(t, sess)
	var plan, stages, tasks int
	var cuboidStage *obs.TraceEvent
	for i, ev := range events {
		switch ev.Cat {
		case "plan":
			plan++
		case "stage":
			stages++
			if _, ok := ev.Args["P"]; ok && cuboidStage == nil {
				cuboidStage = &events[i]
			}
		case "task":
			tasks++
		}
	}
	if plan != 1 {
		t.Errorf("plan spans = %d, want 1", plan)
	}
	if stages == 0 || tasks == 0 {
		t.Fatalf("stage spans = %d, task spans = %d, want both > 0", stages, tasks)
	}
	if cuboidStage == nil {
		t.Fatal("no stage span carries cuboid (P,Q,R) attributes")
	}
	for _, key := range []string{"P", "Q", "R", "phase", "tasks", "flops"} {
		if _, ok := cuboidStage.Args[key]; !ok {
			t.Errorf("stage span %q missing attribute %q", cuboidStage.Name, key)
		}
	}

	// The export is loadable Chrome trace JSON with the same events.
	var buf bytes.Buffer
	if err := sess.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(decoded.TraceEvents) != len(events) {
		t.Errorf("exported %d events, recorded %d", len(decoded.TraceEvents), len(events))
	}

	// Metrics: task and stage counters ran, and the latency histogram saw
	// exactly the counted tasks.
	snap, err := sess.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters[obs.MTasksTotal] == 0 || snap.Counters[obs.MStagesTotal] == 0 {
		t.Errorf("counters: tasks=%d stages=%d, want both > 0",
			snap.Counters[obs.MTasksTotal], snap.Counters[obs.MStagesTotal])
	}
	if got := snap.Histograms[obs.MTaskSeconds].Count; got != snap.Counters[obs.MTasksTotal] {
		t.Errorf("task latency histogram saw %d tasks, counter says %d",
			got, snap.Counters[obs.MTasksTotal])
	}

	// Calibration: the fused operator has a joined prediction/measurement row
	// and the report back-solves effective bandwidths.
	rep := sess.CalibrationReport()
	if len(rep.Rows) == 0 {
		t.Fatal("calibration report has no rows")
	}
	var predicted bool
	for _, row := range rep.Rows {
		if row.PredComFlops > 0 && row.Meas.Flops > 0 {
			predicted = true
		}
	}
	if !predicted {
		t.Errorf("no report row joins a prediction with measured flops: %+v", rep.Rows)
	}
	if text := sess.Report(); !strings.Contains(text, "back-solved") {
		t.Errorf("rendered report missing back-solved bandwidths:\n%s", text)
	}

	// ResetObservations clears all three collectors.
	sess.ResetObservations()
	if n := len(traceSpans(t, sess)); n != 0 {
		t.Errorf("trace has %d events after reset", n)
	}
	snap, _ = sess.MetricsSnapshot()
	if snap.Counters[obs.MTasksTotal] != 0 {
		t.Errorf("task counter = %d after reset", snap.Counters[obs.MTasksTotal])
	}
	if rows := sess.CalibrationReport().Rows; len(rows) != 0 {
		t.Errorf("calibration has %d rows after reset", len(rows))
	}
}

// TestSessionMetricsEndpointTCP runs a TCP-backed query with a live metrics
// endpoint and scrapes /metrics and /debug/stats over HTTP, as a Prometheus
// collector would.
func TestSessionMetricsEndpointTCP(t *testing.T) {
	cfg := LocalClusterConfig()
	cfg.BlockSize = 16
	cfg.Runtime = "tcp"
	cfg.Workers = startWorkers(t, 2)
	sess, err := NewSession(cfg, WithMetricsAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.MetricsAddr() == "" {
		t.Fatal("metrics endpoint has no bound address")
	}
	bindTestInputs(sess)
	if _, err := sess.Query(obsTestScript); err != nil {
		t.Fatal(err)
	}

	body := httpGet(t, "http://"+sess.MetricsAddr()+"/metrics")
	for _, want := range []string{
		"# TYPE fuseme_tasks_total counter",
		obs.MRemoteTasksTotal,
		`fuseme_wire_bytes_total{class="consolidation"}`,
		"fuseme_task_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	var debug struct {
		Metrics obs.Snapshot   `json:"metrics"`
		Stats   *cluster.Stats `json:"stats"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+sess.MetricsAddr()+"/debug/stats")), &debug); err != nil {
		t.Fatalf("/debug/stats is not valid JSON: %v", err)
	}
	if debug.Metrics.Counters[obs.MRemoteTasksTotal] == 0 {
		t.Error("/debug/stats shows zero remote tasks after a TCP query")
	}
	// The runtime totals are the cluster.Stats of the one query, the
	// coordinator's side of the wire included.
	if st := debug.Stats; st == nil {
		t.Error("/debug/stats has no runtime stats block")
	} else if st.Tasks != sess.LastStats().Tasks || st.FetchCalls == 0 || st.CollectSeconds <= 0 {
		t.Errorf("/debug/stats runtime stats = %+v, want the query's %d tasks and the coordinator's fetch and collect figures",
			*st, sess.LastStats().Tasks)
	}
	if got := debug.Metrics.Gauges[obs.MWorkersAlive]; got != 2 {
		t.Errorf("workers-alive gauge = %v, want 2", got)
	}

	// The calibration measured real wire traffic.
	var wired bool
	for _, row := range sess.CalibrationReport().Rows {
		if row.Meas.TotalCommBytes() > 0 {
			wired = true
		}
	}
	if !wired {
		t.Error("no calibration row measured wire bytes on the TCP backend")
	}
}

// TestSessionCalibrationDefault checks that calibration is on for plain
// sessions (no options): stage measurements are cheap and Report works out
// of the box.
func TestSessionCalibrationDefault(t *testing.T) {
	sess := newTestSession(t)
	bindTestInputs(sess)
	if _, err := sess.Query(obsTestScript); err != nil {
		t.Fatal(err)
	}
	if rows := sess.CalibrationReport().Rows; len(rows) == 0 {
		t.Error("default session collected no calibration rows")
	}
	// But per-task instrumentation stays off...
	if sess.obs.Trace || sess.obs.Metrics != nil {
		t.Error("per-task instrumentation enabled without WithTracing/WithMetricsAddr")
	}
	// ...and the exporters report their collectors as disabled.
	if err := sess.WriteTrace(io.Discard); err == nil {
		t.Error("WriteTrace succeeded without WithTracing")
	}
	if _, err := sess.MetricsSnapshot(); err == nil {
		t.Error("MetricsSnapshot succeeded without WithMetricsAddr")
	}
}

// TestSessionOptionValidation covers the failure modes of the tuning options
// and of the environment variables NewSession resolves.
func TestSessionOptionValidation(t *testing.T) {
	cfg := LocalClusterConfig()
	if _, err := NewSession(cfg, WithJournal(nil)); err == nil {
		t.Error("WithJournal(nil) accepted")
	}
	dir := t.TempDir()
	for _, c := range []struct{ env, bad, good string }{
		{EnvJournal, filepath.Join(dir, "missing", "j.jsonl"), filepath.Join(dir, "j.jsonl")},
	} {
		t.Setenv(c.env, c.bad)
		if _, err := NewSession(cfg); err == nil || !strings.Contains(err.Error(), c.env) {
			t.Errorf("%s=%s: err = %v, want one naming the variable", c.env, c.bad, err)
		}
		t.Setenv(c.env, c.good)
		if sess, err := NewSession(cfg); err != nil {
			t.Errorf("%s=%s rejected: %v", c.env, c.good, err)
		} else {
			sess.Close()
		}
		os.Unsetenv(c.env)
	}
}

// TestSessionSettingsAreSnapshotted: NewSession reads the environment once.
// A session built under FUSEME_JOURNAL journals into that file after the
// variable names another one.
func TestSessionSettingsAreSnapshotted(t *testing.T) {
	dir := t.TempDir()
	first, second := filepath.Join(dir, "first.jsonl"), filepath.Join(dir, "second.jsonl")
	t.Setenv(EnvJournal, first)
	sess := newTestSession(t)
	t.Setenv(EnvJournal, second)
	bindTestInputs(sess)
	if _, err := sess.Query(obsTestScript); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(first)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if events, err := obs.ReadEvents(f); err != nil || len(events) == 0 {
		t.Errorf("the journal named at NewSession holds %d events (err %v), want the query's", len(events), err)
	}
	if _, err := os.Stat(second); !os.IsNotExist(err) {
		t.Errorf("the journal named after NewSession was opened: %v", err)
	}
}

// TestReportFeedBackRoundTrips: a session built from the report's
// paste-ready ClusterConfig line plans with the B̂c the report judged
// against.
func TestReportFeedBackRoundTrips(t *testing.T) {
	cfg := LocalClusterConfig()
	cfg.BlockSize = 16
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	bindTestInputs(sess)
	if _, err := sess.Query(obsTestScript); err != nil {
		t.Fatal(err)
	}
	rep := sess.CalibrationReport()
	judged := rep.EffCompBW // the back-solved B̂c, else the configured one
	if judged == 0 {
		judged = cfg.CompBandwidth
	}
	line := regexp.MustCompile(`ClusterConfig\{NetBandwidth: (\S+), CompBandwidth: (\S+)\}`).FindStringSubmatch(rep.String())
	if line == nil {
		t.Fatalf("no feed-back line in the report:\n%s", rep)
	}
	fed := cfg
	var perr [2]error
	fed.NetBandwidth, perr[0] = strconv.ParseFloat(line[1], 64)
	fed.CompBandwidth, perr[1] = strconv.ParseFloat(line[2], 64)
	if perr[0] != nil || perr[1] != nil {
		t.Fatalf("feed-back line %q: %v", line[0], perr)
	}
	again, err := NewSession(fed)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	bindTestInputs(again)
	desc, err := again.ExplainCosts(obsTestScript)
	if err != nil {
		t.Fatal(err)
	}
	header := regexp.MustCompile(`B̂c=(\S+) flop/s`).FindStringSubmatch(desc)
	if header == nil {
		t.Fatalf("no B̂c in the ExplainCosts header:\n%s", desc)
	}
	got, err := strconv.ParseFloat(header[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	// Both sides print three significant digits.
	if math.Abs(got/judged-1) > 0.01 {
		t.Errorf("a session fed %q plans with B̂c = %g, the report judged against %g", line[0], got, judged)
	}
}

// TestSessionExplainCosts checks the -explain payload: every fused operator
// line carries its (P,Q,R) and the predicted cost terms.
func TestSessionExplainCosts(t *testing.T) {
	sess := newTestSession(t)
	bindTestInputs(sess)
	desc, err := sess.ExplainCosts(obsTestScript)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"predicted costs (N=2, B̂n=1e+09 B/s, B̂c=5e+10 flop/s, θt=4.0 GiB):",
		"net=", "comp=", "mem/task=", "-bound"} {
		if !strings.Contains(desc, want) {
			t.Errorf("ExplainCosts missing %q in:\n%s", want, desc)
		}
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return string(body)
}

// TestCalibrationRowOrderIsStable: GNMF's two updates include operators the
// executor runs at once, which finish in either order. Twenty sessions on
// the simulated cluster, one GNMF iteration each, must give one row order in
// Session.Report: the rows follow the plan, not which operator finished
// first.
func TestCalibrationRowOrderIsStable(t *testing.T) {
	var want string
	for i := 0; i < 20; i++ {
		sess, err := NewSession(LocalClusterConfig())
		if err != nil {
			t.Fatal(err)
		}
		bindGNMFInputs(sess)
		if _, err := sess.Query(gnmfScript); err != nil {
			t.Fatal(err)
		}
		var ops []string
		for _, row := range sess.CalibrationReport().Rows {
			ops = append(ops, row.Op)
		}
		sess.Close()
		got := strings.Join(ops, " | ")
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("run %d: calibration rows %s, run 0: %s", i, got, want)
		}
	}
	t.Logf("rows: %s", want)
}
