package fuseme

import (
	"math"
	"testing"
)

const cacheScript = "O = X * log(U %*% t(V) + 1e-3)"

func newCachedSession(t *testing.T, opts ...Option) *Session {
	t.Helper()
	cfg := LocalClusterConfig()
	cfg.BlockSize = 16
	sess, err := NewSession(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestSessionBlockCacheOption: repeating a query over unchanged bindings on a
// WithBlockCache session hits the cache and ships fewer consolidation bytes,
// with bit-identical results; rebinding an input invalidates its blocks.
func TestSessionBlockCacheOption(t *testing.T) {
	sess := newCachedSession(t, WithBlockCache(1<<30))
	bindTestInputs(sess)

	coldOut, err := sess.Query(cacheScript)
	if err != nil {
		t.Fatal(err)
	}
	cold := sess.LastStats()
	if cold.CacheHits != 0 {
		t.Errorf("first query reported %d hits, want 0", cold.CacheHits)
	}
	if cold.CacheMisses == 0 {
		t.Error("first query populated nothing")
	}

	warmOut, err := sess.Query(cacheScript)
	if err != nil {
		t.Fatal(err)
	}
	warm := sess.LastStats()
	if warm.CacheHits == 0 {
		t.Error("repeat query over unchanged bindings hit nothing")
	}
	if warm.ConsolidationBytes >= cold.ConsolidationBytes {
		t.Errorf("warm consolidation %d not below cold %d",
			warm.ConsolidationBytes, cold.ConsolidationBytes)
	}
	if saved := cold.ConsolidationBytes - warm.ConsolidationBytes; warm.CacheSavedBytes != saved {
		t.Errorf("saved %d bytes but consolidation dropped by %d", warm.CacheSavedBytes, saved)
	}
	a, b := coldOut["O"].Dense(), warmOut["O"].Dense()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cached repeat differs at %d: %g vs %g", i, a[i], b[i])
		}
	}

	// Rebinding X restamps its epoch: the stale blocks must not be served.
	sess.RandomSparse("X", 80, 70, 0.05, 1, 5, 99)
	out, err := sess.Query(cacheScript)
	if err != nil {
		t.Fatal(err)
	}
	ref := newCachedSession(t) // cache off
	ref.RandomSparse("X", 80, 70, 0.05, 1, 5, 99)
	ref.RandomDense("U", 80, 10, 0.5, 1.5, 2)
	ref.RandomDense("V", 70, 10, 0.5, 1.5, 3)
	refOut, err := ref.Query(cacheScript)
	if err != nil {
		t.Fatal(err)
	}
	got, want := out["O"].Dense(), refOut["O"].Dense()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12*math.Max(1, math.Abs(want[i])) {
			t.Fatalf("result after rebind differs from uncached reference at %d: %g vs %g",
				i, got[i], want[i])
		}
	}
}

// TestSessionBlockCacheEnv: the FUSEME_CACHE_BYTES environment variable
// enables the cache, an explicit WithBlockCache(0) overrides it back off,
// and malformed values are rejected at session construction.
func TestSessionBlockCacheEnv(t *testing.T) {
	t.Setenv(EnvCacheBytes, "1073741824")
	sess := newCachedSession(t)
	bindTestInputs(sess)
	if _, err := sess.Query(cacheScript); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query(cacheScript); err != nil {
		t.Fatal(err)
	}
	if sess.LastStats().CacheHits == 0 {
		t.Error("env-enabled cache hit nothing on the repeat query")
	}

	off := newCachedSession(t, WithBlockCache(0))
	bindTestInputs(off)
	if _, err := off.Query(cacheScript); err != nil {
		t.Fatal(err)
	}
	if _, err := off.Query(cacheScript); err != nil {
		t.Fatal(err)
	}
	if st := off.LastStats(); st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Errorf("WithBlockCache(0) did not override the environment: %+v", st)
	}

	t.Setenv(EnvCacheBytes, "lots")
	cfg := LocalClusterConfig()
	if _, err := NewSession(cfg); err == nil {
		t.Error("malformed FUSEME_CACHE_BYTES accepted")
	}
}

func TestWithBlockCacheRejectsNegative(t *testing.T) {
	cfg := LocalClusterConfig()
	if _, err := NewSession(cfg, WithBlockCache(-1)); err == nil {
		t.Error("negative cache budget accepted")
	}
}

// TestTCPSessionBlockCacheMatchesSim: a WithBlockCache session over workers
// started without any cache setting — the budget travels with every stage —
// hits, misses and saves exactly what the same session on the simulated
// backend does, query by query, and its results equal an uncached TCP
// session's bit for bit.
func TestTCPSessionBlockCacheMatchesSim(t *testing.T) {
	tcp := LocalClusterConfig()
	tcp.BlockSize = 16
	tcp.Runtime = "tcp"
	tcp.Workers = startWorkers(t, 2)
	run := func(cfg ClusterConfig, opts ...Option) (outs [][]float64, stats []Stats) {
		t.Helper()
		sess, err := NewSession(cfg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		bindTestInputs(sess)
		for range 3 {
			out, err := sess.Query(cacheScript)
			if err != nil {
				t.Fatal(err)
			}
			outs, stats = append(outs, out["O"].Dense()), append(stats, sess.LastStats())
		}
		return outs, stats
	}
	sim := tcp
	sim.Runtime, sim.Workers = "", nil
	_, simStats := run(sim, WithBlockCache(1<<30))
	cachedOuts, tcpStats := run(tcp, WithBlockCache(1<<30))
	plainOuts, _ := run(tcp)
	for q := range simStats {
		s, r := simStats[q], tcpStats[q]
		if s.CacheHits != r.CacheHits || s.CacheMisses != r.CacheMisses || s.CacheSavedBytes != r.CacheSavedBytes {
			t.Errorf("query %d: sim hits/misses/saved %d/%d/%d, tcp %d/%d/%d",
				q, s.CacheHits, s.CacheMisses, s.CacheSavedBytes, r.CacheHits, r.CacheMisses, r.CacheSavedBytes)
		}
		if q > 0 && r.CacheHits == 0 {
			t.Errorf("query %d over unchanged bindings hit nothing over TCP", q)
		}
		for i, want := range plainOuts[q] {
			if got := cachedOuts[q][i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("query %d: cached O[%d] = %g over TCP, uncached %g", q, i, got, want)
			}
		}
	}
}
