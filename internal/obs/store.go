package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
)

// CalibKey identifies one cluster shape in a CalibStore. Effective bandwidths
// depend on all three dimensions: the worker count sets how much aggregate
// wire and compute capacity a stage divides over, the block size sets the
// per-message framing overhead, and the kernel-thread count sets how much of
// a node's cores one task may use.
type CalibKey struct {
	Workers       int `json:"workers"`
	BlockSize     int `json:"block_size"`
	KernelThreads int `json:"kernel_threads"`
}

// CalibEntry is one cluster shape's learned bandwidths: exponentially
// weighted averages of the per-stage back-solved effective B̂n and B̂c,
// updated online as stages complete (see CalibStore.Observe). A zero
// bandwidth means no stage of that resource class has been observed yet.
type CalibEntry struct {
	Key         CalibKey `json:"key"`
	NetBW       float64  `json:"net_bw"`       // learned B̂n, bytes/s per node
	CompBW      float64  `json:"comp_bw"`      // learned B̂c, flop/s per node
	NetSamples  int64    `json:"net_samples"`  // net-bound stages folded in
	CompSamples int64    `json:"comp_samples"` // comp-bound stages folded in

	// pubNetBW/pubCompBW are the values at the last generation bump; the
	// generation only advances when the live average drifts materially away
	// from them, so plan caches keyed on the generation are not thrashed by
	// per-stage jitter.
	pubNetBW, pubCompBW float64
}

// calibEWMAAlpha is the online-update smoothing factor: each stage sample
// moves the learned bandwidth 25% of the way to the observation, so a
// changed cluster converges within a handful of stages while one outlier
// stage cannot swing the plan costing.
const calibEWMAAlpha = 0.25

// calibGenerationDrift is the relative movement of a learned bandwidth that
// advances the store generation (and therefore re-keys compiled-plan
// caches). Smaller drifts keep refining the value silently.
const calibGenerationDrift = 0.10

// CalibStore is the persisted per-cluster calibration store: learned
// effective bandwidths keyed by cluster shape, built from flight records
// (UpdateFromFlight) and refined online as stages complete (Observe). The
// optimizer consults it through Lookup when costing candidate plans. Safe
// for concurrent use; a nil *CalibStore absorbs every call.
type CalibStore struct {
	mu      sync.Mutex
	path    string // Save target; "" = in-memory only
	entries map[CalibKey]*CalibEntry
	gen     uint64
}

// NewCalibStore returns an empty in-memory store.
func NewCalibStore() *CalibStore {
	return &CalibStore{entries: map[CalibKey]*CalibEntry{}}
}

// OpenCalibStore opens (or creates) the store persisted at path: an existing
// file is loaded, a missing one starts the store empty. Save writes back to
// the same path.
func OpenCalibStore(path string) (*CalibStore, error) {
	s := NewCalibStore()
	s.path = path
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return s, nil
		}
		return nil, fmt.Errorf("obs: calibration store: %w", err)
	}
	if err := s.load(data); err != nil {
		return nil, fmt.Errorf("obs: calibration store %s: %w", path, err)
	}
	return s, nil
}

// calibFile is the on-disk JSON document.
type calibFile struct {
	Version    int          `json:"version"`
	Generation uint64       `json:"generation"`
	Entries    []CalibEntry `json:"entries"`
}

func (s *CalibStore) load(data []byte) error {
	var f calibFile
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	if f.Version != 1 {
		return fmt.Errorf("unsupported version %d", f.Version)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if f.Generation > s.gen {
		s.gen = f.Generation
	}
	for i := range f.Entries {
		e := f.Entries[i]
		e.pubNetBW, e.pubCompBW = e.NetBW, e.CompBW
		s.entries[e.Key] = &e
	}
	return nil
}

// Save persists the store to the path it was opened with; a store created
// with NewCalibStore (no path) saves nowhere and returns nil.
func (s *CalibStore) Save() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	path := s.path
	s.mu.Unlock()
	if path == "" {
		return nil
	}
	return s.SaveTo(path)
}

// SaveTo persists the store to an explicit path.
func (s *CalibStore) SaveTo(path string) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	f := calibFile{Version: 1, Generation: s.gen, Entries: make([]CalibEntry, 0, len(s.entries))}
	for _, e := range s.entries {
		f.Entries = append(f.Entries, *e)
	}
	s.mu.Unlock()
	sortEntries(f.Entries)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortEntries(es []CalibEntry) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i].Key, es[j].Key
		if a.Workers != b.Workers {
			return a.Workers < b.Workers
		}
		if a.BlockSize != b.BlockSize {
			return a.BlockSize < b.BlockSize
		}
		return a.KernelThreads < b.KernelThreads
	})
}

// Generation returns the store's generation counter. It advances only when a
// learned bandwidth moves materially (or the store is rotated), so it is the
// right cache-invalidation stamp: plan caches append it to their keys and
// stale plans re-cost exactly when the model meaningfully changed.
func (s *CalibStore) Generation() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Len returns the number of cluster shapes with learned entries.
func (s *CalibStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Entries returns a sorted copy of the learned entries.
func (s *CalibStore) Entries() []CalibEntry {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := make([]CalibEntry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, *e)
	}
	s.mu.Unlock()
	sortEntries(out)
	return out
}

// Rotate discards every learned entry and advances the generation. This is
// the topology-change escape hatch: after a hardware or network change the
// learned bandwidths describe a cluster that no longer exists, and rotating
// both forgets them and re-keys every compiled-plan cache stamped with the
// old generation.
func (s *CalibStore) Rotate() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.entries = map[CalibKey]*CalibEntry{}
	s.gen++
	s.mu.Unlock()
}

// Lookup returns learned bandwidths for a cluster shape. The fallback order
// trades specificity for coverage: an exact (workers, block size, kernel
// threads) entry wins; otherwise the same workers and block size with any
// kernel-thread count (closest, preferring smaller); otherwise the same
// worker count with any block size. A different worker count never
// substitutes — aggregate bandwidth scales with N, so entries from another
// cluster size would mislead the optimizer more than the configured
// constants do. The returned entry's Key says which shape matched.
func (s *CalibStore) Lookup(key CalibKey) (CalibEntry, bool) {
	if s == nil {
		return CalibEntry{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		return *e, true
	}
	var best *CalibEntry
	bestRank := 0 // 2 = same workers+block size, 1 = same workers
	for _, e := range s.entries {
		if e.Key.Workers != key.Workers {
			continue
		}
		rank := 1
		if e.Key.BlockSize == key.BlockSize {
			rank = 2
		}
		if rank > bestRank || (rank == bestRank && best != nil && closerKey(e.Key, best.Key, key)) {
			best, bestRank = e, rank
		}
	}
	if best == nil {
		return CalibEntry{}, false
	}
	return *best, true
}

// closerKey reports whether candidate a is a better fallback than b for the
// requested key: smaller kernel-thread distance wins, ties break toward the
// smaller key so the choice is deterministic.
func closerKey(a, b, want CalibKey) bool {
	da, db := absInt(a.KernelThreads-want.KernelThreads), absInt(b.KernelThreads-want.KernelThreads)
	if da != db {
		return da < db
	}
	if a.KernelThreads != b.KernelThreads {
		return a.KernelThreads < b.KernelThreads
	}
	return a.BlockSize < b.BlockSize
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Observe folds one executed stage into the learned entry for key. The stage
// is attributed to the resource class its prediction says bound it under the
// configured model m — the same Eq. 2 classification Calibration.Report uses
// — and its back-solved effective bandwidth (measured bytes or flops over
// N x wall) moves the class's EWMA. Stages with no prediction or no wall
// time are ignored. Returns true when a sample was folded in.
func (s *CalibStore) Observe(key CalibKey, m ClusterModel, rec FlightRecord) bool {
	if s == nil || rec.MeasWallSeconds <= 0 {
		return false
	}
	netSec, comSec, netBound := m.Eq2(rec.PredNetBytes, rec.PredComFlops)
	if netSec <= 0 && comSec <= 0 {
		return false // bookkeeping stage with no prediction: nothing to learn from
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		e = &CalibEntry{Key: key}
		s.entries[key] = e
	}
	// The class whose term binds takes the sample; a net-bound stage that
	// moved no bytes still calibrates compute.
	bw, samples, pub, measured := &e.NetBW, &e.NetSamples, &e.pubNetBW, float64(rec.NetBytes())
	if !netBound || measured <= 0 {
		bw, samples, pub, measured = &e.CompBW, &e.CompSamples, &e.pubCompBW, float64(rec.MeasFlops)
	}
	if measured <= 0 {
		return false
	}
	*bw = ewma(*bw, m.perNode(measured, rec.MeasWallSeconds), *samples)
	*samples++
	if drifted(*bw, pub) {
		s.gen++
	}
	return true
}

// ewma moves prev toward sample; the first sample initialises the average.
func ewma(prev, sample float64, samples int64) float64 {
	if samples == 0 || prev <= 0 {
		return sample
	}
	return prev + calibEWMAAlpha*(sample-prev)
}

// drifted reports whether live has moved materially away from the last
// published value, updating the published value when it has.
func drifted(live float64, published *float64) bool {
	if *published <= 0 {
		*published = live
		return live > 0
	}
	rel := (live - *published) / *published
	if rel < 0 {
		rel = -rel
	}
	if rel > calibGenerationDrift {
		*published = live
		return true
	}
	return false
}

// UpdateFromFlight warms the entry for key from persisted flight records —
// the offline half of the feedback loop: run a representative workload with
// -flight-out, then feed the file into the store so the very first plan of
// the next session is costed with learned bandwidths. Records flow through
// the same per-stage Observe path as live execution. Returns how many
// records contributed a sample.
func (s *CalibStore) UpdateFromFlight(key CalibKey, m ClusterModel, recs []FlightRecord) int {
	folded := 0
	for _, r := range recs {
		if s.Observe(key, m, r) {
			folded++
		}
	}
	return folded
}

// Learner binds a calibration store to one session's cluster shape so
// Obs.StageDone can stream stage records into it without knowing either.
// Sessions on different cluster shapes share one store safely — each learns
// under its own key.
type Learner struct {
	Store *CalibStore
	Key   CalibKey
	Model ClusterModel // configured constants used to classify stage boundness
}

// Observe forwards one stage record to the store; nil-safe.
func (l *Learner) Observe(rec FlightRecord) bool {
	if l == nil {
		return false
	}
	return l.Store.Observe(l.Key, l.Model, rec)
}
