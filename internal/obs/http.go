package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// Server exposes a registry over HTTP: Prometheus text on /metrics, a
// JSON snapshot (plus an optional caller-supplied stats view) on
// /debug/stats, and the Go runtime profiles on /debug/pprof/ — sessions and
// workers alike, so `go tool pprof` can attach to any process of a cluster.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// MetricsHandler serves reg for /metrics: Prometheus text by default, the
// JSON snapshot (with histogram quantiles) when the client asks for
// application/json.
func MetricsHandler(reg *Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.Header.Get("Accept"), "application/json") {
			writeJSON(w, reg.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	}
}

// StatsHandler serves /debug/stats: a JSON object holding reg's snapshot
// under "metrics" and, when extra is non-nil, what extra returns per request
// under key.
func StatsHandler(reg *Registry, key string, extra func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		body := map[string]any{"metrics": reg.Snapshot()}
		if extra != nil {
			body[key] = extra()
		}
		writeJSON(w, body)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// ServeMetrics starts an HTTP server on addr (e.g. ":9090" or
// "127.0.0.1:0") exposing reg. stats, when non-nil, is called per
// /debug/stats request and its result embedded under "stats" — callers pass
// a closure over their live cluster statistics.
func ServeMetrics(addr string, reg *Registry, stats func() any) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(reg))
	mux.Handle("/debug/stats", StatsHandler(reg, "stats", stats))
	// Runtime profiling endpoints. net/http/pprof registers on
	// http.DefaultServeMux as a side effect of the import; this mux is
	// private, so the handlers are wired explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{
		ln:   ln,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound address, useful with ":0".
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server. Safe on nil.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	err := s.srv.Close()
	<-s.done
	return err
}
