package fuseme

import (
	"errors"
	"sync"
	"testing"

	"fuseme/internal/cfg"
	"fuseme/internal/obs"
	"fuseme/internal/opt"
)

// TestQueryBusy: a session executes one query at a time; a second concurrent
// Query gets ErrSessionBusy rather than blocking, and the session keeps
// working afterwards.
func TestQueryBusy(t *testing.T) {
	sess := newTestSession(t)
	bindTestInputs(sess)
	const script = "O = X * log(U %*% t(V) + 1e-3)"

	// Deterministic white-box variant: hold the query gate and probe.
	sess.queryMu.Lock()
	if _, err := sess.Query(script); !errors.Is(err, ErrSessionBusy) {
		sess.queryMu.Unlock()
		t.Fatalf("err = %v, want ErrSessionBusy", err)
	}
	sess.queryMu.Unlock()
	if _, err := sess.Query(script); err != nil {
		t.Fatalf("query after busy probe: %v", err)
	}

	// Black-box variant: of N racing queries, every failure is
	// ErrSessionBusy and at least one succeeds.
	var wg sync.WaitGroup
	var mu sync.Mutex
	okCount := 0
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := sess.Query(script)
			switch {
			case err == nil:
				mu.Lock()
				okCount++
				mu.Unlock()
			case !errors.Is(err, ErrSessionBusy):
				t.Errorf("concurrent query: %v", err)
			}
		}()
	}
	wg.Wait()
	if okCount == 0 {
		t.Fatal("no racing query succeeded")
	}
}

// TestCloseIdempotentConcurrent: Close is safe to call repeatedly and from
// concurrent goroutines, and the session reconstructs its backend on the
// next query.
func TestCloseIdempotentConcurrent(t *testing.T) {
	sess := newTestSession(t)
	bindTestInputs(sess)
	if _, err := sess.Query("O = X * log(U %*% t(V) + 1e-3)"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sess.Close(); err != nil {
				t.Errorf("concurrent close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := sess.Close(); err != nil {
		t.Fatalf("close after close: %v", err)
	}
	if _, err := sess.Query("O = X * log(U %*% t(V) + 1e-3)"); err != nil {
		t.Fatalf("query after close: %v", err)
	}
}

// bindRenamed binds the NMF inputs under arbitrary names.
func bindRenamed(s *Session, x, u, v string) {
	s.RandomSparse(x, 80, 70, 0.05, 1, 5, 1)
	s.RandomDense(u, 80, 10, 0.5, 1.5, 2)
	s.RandomDense(v, 70, 10, 0.5, 1.5, 3)
}

// TestPlanCacheSkipsCFG is the end-to-end cache guarantee: across N
// structurally identical submissions (with renamed variables) through a
// shared plan cache, CFG plan generation and the (P,Q,R) parameter search
// run exactly once, and every result is bit-identical to an uncached
// session's.
func TestPlanCacheSkipsCFG(t *testing.T) {
	pc := NewPlanCache(0)
	mkSession := func() *Session {
		cfgc := LocalClusterConfig()
		cfgc.BlockSize = 16
		sess, err := NewSession(cfgc, WithPlanCache(pc))
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}

	// The same plan under three spellings: renamed inputs and outputs.
	scripts := []struct{ script, x, u, v, out string }{
		{"O = X * log(U %*% t(V) + 1e-3)", "X", "U", "V", "O"},
		{"Res = A * log(B %*% t(C) + 1e-3)", "A", "B", "C", "Res"},
		{"Z = M1 * log(M2 %*% t(M3) + 1e-3)", "M1", "M2", "M3", "Z"},
	}

	// Uncached reference.
	ref := newTestSession(t)
	bindRenamed(ref, "X", "U", "V")
	refOut, err := ref.Query(scripts[0].script)
	if err != nil {
		t.Fatal(err)
	}
	want := refOut["O"].Dense()

	genBase, searchBase := cfg.GenerateCalls(), opt.SearchCalls()
	var genAfterFirst, searchAfterFirst int64
	const rounds = 2
	for round := 0; round < rounds; round++ {
		for i, sc := range scripts {
			sess := mkSession()
			bindRenamed(sess, sc.x, sc.u, sc.v)
			out, err := sess.Query(sc.script)
			if err != nil {
				t.Fatal(err)
			}
			first := round == 0 && i == 0
			if hit := sess.LastPlanCacheHit(); hit == first {
				t.Fatalf("round %d script %d: plan cache hit = %v", round, i, hit)
			}
			got := out[sc.out].Dense()
			if len(got) != len(want) {
				t.Fatalf("round %d script %d: %d values, want %d", round, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("round %d script %d: cached result differs at index %d: %g vs %g",
						round, i, j, got[j], want[j])
				}
			}
			if first {
				genAfterFirst = cfg.GenerateCalls()
				searchAfterFirst = opt.SearchCalls()
				if genAfterFirst == genBase {
					t.Fatal("first compile did not run CFG plan generation")
				}
			}
			sess.Close()
		}
	}
	if gen := cfg.GenerateCalls(); gen != genAfterFirst {
		t.Fatalf("CFG ran again on cached submissions: %d calls after first, %d at end",
			genAfterFirst-genBase, gen-genBase)
	}
	if search := opt.SearchCalls(); search != searchAfterFirst {
		t.Fatalf("parameter search ran again on cached submissions: %d after first, %d at end",
			searchAfterFirst-searchBase, search-searchBase)
	}

	st := pc.Stats()
	if st.Misses != 1 || st.Hits != int64(rounds*len(scripts)-1) {
		t.Fatalf("cache stats %+v, want 1 miss, %d hits", st, rounds*len(scripts)-1)
	}
}

// TestPlanCacheKeySensitivity: changing shapes, cluster knobs or the engine
// must miss the cache even for a textually identical script.
func TestPlanCacheKeySensitivity(t *testing.T) {
	pc := NewPlanCache(0)
	const script = "O = X * log(U %*% t(V) + 1e-3)"

	newSess := func(blockSize int) *Session {
		c := LocalClusterConfig()
		c.BlockSize = blockSize
		sess, err := NewSession(c, WithPlanCache(pc))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		return sess
	}

	warm := newSess(16)
	bindTestInputs(warm)
	if _, err := warm.Query(script); err != nil {
		t.Fatal(err)
	}
	if warm.LastPlanCacheHit() {
		t.Fatal("cold query hit")
	}

	// Different input shape: structural miss.
	shaped := newSess(16)
	shaped.RandomSparse("X", 64, 70, 0.05, 1, 5, 1)
	shaped.RandomDense("U", 64, 10, 0.5, 1.5, 2)
	shaped.RandomDense("V", 70, 10, 0.5, 1.5, 3)
	if _, err := shaped.Query(script); err != nil {
		t.Fatal(err)
	}
	if shaped.LastPlanCacheHit() {
		t.Fatal("different shapes hit the cache")
	}

	// Different cluster knob (block size): fingerprint miss.
	knob := newSess(32)
	bindTestInputs(knob)
	if _, err := knob.Query(script); err != nil {
		t.Fatal(err)
	}
	if knob.LastPlanCacheHit() {
		t.Fatal("different block size hit the cache")
	}

	// Different engine: fingerprint miss.
	eng := newSess(16)
	if err := eng.SetEngine(EngineDistME); err != nil {
		t.Fatal(err)
	}
	bindTestInputs(eng)
	if _, err := eng.Query(script); err != nil {
		t.Fatal(err)
	}
	if eng.LastPlanCacheHit() {
		t.Fatal("different engine hit the cache")
	}

	// Same config again: hit.
	again := newSess(16)
	bindTestInputs(again)
	if _, err := again.Query(script); err != nil {
		t.Fatal(err)
	}
	if !again.LastPlanCacheHit() {
		t.Fatal("identical config missed the cache")
	}
}

// TestPlanCacheKeyCoversPlanInputs: sessions that share one PlanCache and
// differ only in a cluster parameter the compile reads — BlockSize, then
// TasksPerNode — each get the plan their own compile picks, not the plan the
// first session cached. (A compiled plan carries stages lowered for one block
// size: a hit across block sizes would run the wrong grid.)
func TestPlanCacheKeyCoversPlanInputs(t *testing.T) {
	const script = "O = X * log(U %*% t(V) + 1e-3)"
	pc := NewPlanCache(0)
	explain := func(c ClusterConfig, opts ...Option) (string, bool) {
		sess, err := NewSession(c, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		sess.RandomSparse("X", 1024, 1024, 0.05, 1, 5, 1)
		sess.RandomDense("U", 1024, 16, 0.1, 0.9, 2)
		sess.RandomDense("V", 1024, 16, 0.1, 0.9, 3)
		plan, err := sess.Explain(script)
		if err != nil {
			t.Fatal(err)
		}
		return plan, sess.LastPlanCacheHit()
	}
	base := LocalClusterConfig()
	basePlan, _ := explain(base, WithPlanCache(pc))
	blocks, slots := base, base
	blocks.BlockSize = 128
	slots.TasksPerNode = 1
	for name, c := range map[string]ClusterConfig{"BlockSize=128": blocks, "TasksPerNode=1": slots} {
		own, _ := explain(c)
		if own == basePlan {
			t.Fatalf("%s compiles the base plan %q: the case distinguishes nothing", name, own)
		}
		if got, hit := explain(c, WithPlanCache(pc)); hit || got != own {
			t.Errorf("%s on the shared cache: hit=%t plan %q, want its own compile's %q", name, hit, got, own)
		}
	}
	if again, hit := explain(base, WithPlanCache(pc)); !hit || again != basePlan {
		t.Errorf("identical config: hit=%t plan %q, want a hit on %q", hit, again, basePlan)
	}
}

// TestPlanCacheMultiOutputRename: a cached multi-output plan (GNMF) must
// return its outputs under the submitting script's names.
func TestPlanCacheMultiOutputRename(t *testing.T) {
	pc := NewPlanCache(0)
	c := LocalClusterConfig()
	c.BlockSize = 16
	mk := func() *Session {
		sess, err := NewSession(c, WithPlanCache(pc))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		return sess
	}
	bindGNMF := func(s *Session, x, u, v string) {
		s.RandomSparse(x, 96, 80, 0.08, 1, 5, 9)
		s.RandomDense(u, 8, 80, 0.5, 1.5, 10)
		s.RandomDense(v, 96, 8, 0.5, 1.5, 11)
	}

	a := mk()
	bindGNMF(a, "X", "U", "V")
	outA, err := a.Query("U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)\nV2 = V * (X %*% t(U)) / (V %*% (U %*% t(U)))")
	if err != nil {
		t.Fatal(err)
	}

	b := mk()
	bindGNMF(b, "R", "P", "Q")
	outB, err := b.Query("Pn = P * (t(Q) %*% R) / (t(Q) %*% Q %*% P)\nQn = Q * (R %*% t(P)) / (Q %*% (P %*% t(P)))")
	if err != nil {
		t.Fatal(err)
	}
	if !b.LastPlanCacheHit() {
		t.Fatal("renamed GNMF missed the cache")
	}
	for from, to := range map[string]string{"U2": "Pn", "V2": "Qn"} {
		wantM, gotM := outA[from], outB[to]
		if gotM == nil {
			t.Fatalf("missing renamed output %q (have %v)", to, outputNames(outB))
		}
		want, got := wantM.Dense(), gotM.Dense()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("output %s/%s differs at %d: %g vs %g", from, to, i, got[i], want[i])
			}
		}
	}
}

func outputNames(out map[string]*Matrix) []string {
	var names []string
	for n := range out {
		names = append(names, n)
	}
	return names
}

// TestSharedRegistryAggregates: sessions built with WithRegistry report
// their plan-cache counters into the shared registry.
func TestSharedRegistryAggregates(t *testing.T) {
	reg := obs.NewRegistry()
	pc := NewPlanCache(0)
	c := LocalClusterConfig()
	c.BlockSize = 16
	for i := 0; i < 3; i++ {
		sess, err := NewSession(c, WithPlanCache(pc), WithRegistry(reg))
		if err != nil {
			t.Fatal(err)
		}
		bindTestInputs(sess)
		if _, err := sess.Query("O = X * log(U %*% t(V) + 1e-3)"); err != nil {
			t.Fatal(err)
		}
		sess.Close()
	}
	if hits := reg.Counter(obs.MPlanCacheHits).Value(); hits != 2 {
		t.Fatalf("registry hit counter = %d, want 2", hits)
	}
	if misses := reg.Counter(obs.MPlanCacheMisses).Value(); misses != 1 {
		t.Fatalf("registry miss counter = %d, want 1", misses)
	}
}
