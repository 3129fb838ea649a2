// Command fuseme-top is a terminal dashboard for a running fuseme-serve
// instance: it polls GET /v1/queries (live and recent queries), GET /v1/status
// (tenants, sessions, scheduler) and the JSON metrics snapshot, and renders
// tenant latency quantiles (p50/p95/p99), stage skew and per-worker slowdown
// scores alongside the query table.
//
//	fuseme-top -addr 127.0.0.1:8080            # refresh every 2s
//	fuseme-top -addr 127.0.0.1:8080 -once      # print one frame and exit
//
// Pass -token when the service requires tenant authentication for the query
// API; the observability endpoints themselves are open.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"fuseme/internal/obs"
	"fuseme/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "fuseme-serve address (host:port)")
	interval := flag.Duration("interval", 2*time.Second, "poll interval")
	once := flag.Bool("once", false, "print a single frame and exit")
	token := flag.String("token", "", "tenant token forwarded as X-FuseMe-Token")
	flag.Parse()

	c := &client{base: "http://" + *addr, token: *token, hc: &http.Client{Timeout: 10 * time.Second}}
	for {
		d, err := c.poll()
		if err != nil {
			fmt.Fprintln(os.Stderr, "fuseme-top:", err)
			os.Exit(1)
		}
		if !*once {
			fmt.Print("\033[H\033[2J") // clear screen, cursor home
		}
		render(os.Stdout, d)
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

// client fetches the three observability documents from a fuseme-serve
// instance.
type client struct {
	base  string
	token string
	hc    *http.Client
}

// dashboard is one polled frame.
type dashboard struct {
	At      time.Time
	Queries serve.QueryList
	Status  serve.Status
	Metrics obs.Snapshot
}

func (c *client) get(path string, accept string, v any) error {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if c.token != "" {
		req.Header.Set("X-FuseMe-Token", c.token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// poll fetches one dashboard frame.
func (c *client) poll() (dashboard, error) {
	d := dashboard{At: time.Now()}
	if err := c.get("/v1/queries", "", &d.Queries); err != nil {
		return d, err
	}
	if err := c.get("/v1/status", "", &d.Status); err != nil {
		return d, err
	}
	if err := c.get("/metrics", "application/json", &d.Metrics); err != nil {
		return d, err
	}
	return d, nil
}

// series extracts the label value of one series of family, e.g.
// series(`fuseme_tenant_query_seconds{tenant="acme"}`, "fuseme_tenant_query_seconds")
// returns "acme", true.
func series(name, family string) (string, bool) {
	rest, ok := strings.CutPrefix(name, family+"{")
	if !ok {
		return "", false
	}
	rest = strings.TrimSuffix(rest, "\"}")
	if i := strings.IndexByte(rest, '"'); i >= 0 {
		return rest[i+1:], true
	}
	return "", false
}

// render writes one dashboard frame as fixed-width tables.
func render(w io.Writer, d dashboard) {
	st := d.Status
	fmt.Fprintf(w, "fuseme-top  %s  sessions %d/%d busy  running tasks %d",
		d.At.Format("15:04:05"), st.SessionsBusy, st.Sessions, st.RunningTasks)
	if st.Draining {
		fmt.Fprint(w, "  DRAINING")
	}
	fmt.Fprintln(w)

	// Tenants: admission counters plus end-to-end latency quantiles from the
	// per-tenant histograms.
	if len(st.Tenants) > 0 {
		fmt.Fprintln(w, "\nTENANT        QUERIES  ERR  REJ   QUEUE  p50      p95      p99")
		for _, t := range st.Tenants {
			h := d.Metrics.Histograms[obs.TenantSeries(obs.MTenantQuerySeconds, t.Name)]
			fmt.Fprintf(w, "%-12s %8d %4d %4d %7d  %-8s %-8s %-8s\n",
				t.Name, t.Queries, t.Errors, t.Rejects, t.QueueDepth,
				fmtSeconds(h.P50), fmtSeconds(h.P95), fmtSeconds(h.P99))
		}
	}

	// Stage skew and per-worker slowdown scores, when the detector has run.
	if skew, ok := d.Metrics.Gauges[obs.MStageSkew]; ok {
		fmt.Fprintf(w, "\nlast stage skew (max/median): %.2f\n", skew)
	}
	type slow struct {
		worker string
		score  float64
	}
	var slows []slow
	for name, v := range d.Metrics.Gauges {
		if wkr, ok := series(name, obs.MWorkerSlowdown); ok {
			slows = append(slows, slow{wkr, v})
		}
	}
	if len(slows) > 0 {
		sort.Slice(slows, func(i, j int) bool { return slows[i].worker < slows[j].worker })
		fmt.Fprint(w, "worker slowdown:")
		for _, s := range slows {
			mark := ""
			if s.score >= 1.5 {
				mark = " STRAGGLER"
			}
			fmt.Fprintf(w, "  w%s=%.2f%s", s.worker, s.score, mark)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "\nID        TENANT       STATE     QUEUE     EXEC      HIT  SCRIPT")
	for _, q := range d.Queries.Live {
		renderQuery(w, q)
	}
	for _, q := range d.Queries.Recent {
		renderQuery(w, q)
	}
}

// renderQuery writes one query row.
func renderQuery(w io.Writer, q serve.QueryRecord) {
	hit := ""
	if q.PlanCacheHit {
		hit = "yes"
	}
	tail := strings.SplitN(q.Script, "\n", 2)[0]
	if len(tail) > 40 {
		tail = tail[:40] + "..."
	}
	if q.Error != "" {
		tail = "! " + q.Error
	}
	fmt.Fprintf(w, "%-9s %-12s %-9s %-9s %-9s %-4s %s\n",
		q.ID, q.Tenant, q.State,
		fmtSeconds(q.QueueMillis/1e3), fmtSeconds(q.ExecMillis/1e3), hit, tail)
}

// fmtSeconds renders a duration in adaptive units ("-" for zero).
func fmtSeconds(s float64) string {
	switch {
	case s <= 0:
		return "-"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.1fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}
