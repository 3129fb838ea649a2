package fuseme

import (
	"errors"
	"fmt"
	"os"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/obs"
)

// EnvCalib names the calibration-store file (see WithCalibration). When set
// and no calibration option was given, the session opens (or creates) the
// store at this path and saves it on Close.
const EnvCalib = "FUSEME_CALIB"

// CalibrationStore holds learned effective cluster bandwidths (B̂n/B̂c) keyed
// by cluster shape — worker count, block size, kernel threads. Sessions
// attached to a store (WithCalibration / WithCalibrationStore) both consult
// it when costing candidate plans and feed it online: every executed stage's
// measured wall time is back-solved into an effective bandwidth sample under
// the paper's Eq. 2 and folded into the entry for the session's shape.
//
// Share one store across sessions (and across the serve daemon's tenants):
// entries are per-shape, so sessions on different cluster configurations
// never pollute each other. Safe for concurrent use.
type CalibrationStore struct {
	s *obs.CalibStore
}

// NewCalibrationStore creates an empty in-memory store (Save is a no-op;
// use SaveTo or OpenCalibrationStore for persistence).
func NewCalibrationStore() *CalibrationStore {
	return &CalibrationStore{s: obs.NewCalibStore()}
}

// OpenCalibrationStore opens the store persisted at path, creating an empty
// one when the file does not exist yet. Save writes back to the same path.
func OpenCalibrationStore(path string) (*CalibrationStore, error) {
	s, err := obs.OpenCalibStore(path)
	if err != nil {
		return nil, err
	}
	return &CalibrationStore{s: s}, nil
}

// Save persists the store to the path it was opened with.
func (c *CalibrationStore) Save() error { return c.s.Save() }

// SaveTo persists the store to an explicit path.
func (c *CalibrationStore) SaveTo(path string) error { return c.s.SaveTo(path) }

// Generation returns the store's generation counter. It advances only when
// a learned bandwidth moves materially (>10%) or the store is rotated, and
// it is stamped into every attached session's plan-cache keys — so compiled
// plans are invalidated exactly when the cost model meaningfully changed.
func (c *CalibrationStore) Generation() uint64 { return c.s.Generation() }

// Len returns the number of cluster shapes with learned entries.
func (c *CalibrationStore) Len() int { return c.s.Len() }

// Rotate discards every learned entry and advances the generation. Use it
// after a topology change (new NICs, different hardware, moved racks): the
// old entries describe a cluster that no longer exists, and the generation
// bump re-keys every compiled plan costed under them.
func (c *CalibrationStore) Rotate() { c.s.Rotate() }

// WarmFromFlightFile folds a flight-recorder file (WithFlightRecorder /
// -flight-out) into the store under cfg's cluster shape, so the very first
// plan of the next session is costed with learned bandwidths instead of the
// configured constants. Returns how many stage records contributed a sample.
func (c *CalibrationStore) WarmFromFlightFile(path string, cfg ClusterConfig) (int, error) {
	recs, err := obs.ReadFlightFile(path)
	if err != nil {
		return 0, err
	}
	return c.s.UpdateFromFlight(calibKeyFor(cfg), core.EqModel(cfg.internal()), recs), nil
}

// calibKeyFor derives the store key from a cluster configuration.
func calibKeyFor(cfg ClusterConfig) obs.CalibKey {
	return obs.CalibKey{Workers: cfg.Nodes, BlockSize: cfg.BlockSize, KernelThreads: cfg.KernelThreads}
}

// WithCalibration attaches a persisted calibration store at path: the file
// is opened (or created) at session construction, consulted when costing
// every plan, updated online as stages complete, and saved on Session.Close.
// Environment fallback: FUSEME_CALIB.
func WithCalibration(path string) Option {
	return func(s *Session) error {
		if path == "" {
			return errors.New("fuseme: WithCalibration(\"\")")
		}
		if s.calibStore != nil {
			return errors.New("fuseme: calibration store already configured")
		}
		cs, err := OpenCalibrationStore(path)
		if err != nil {
			return err
		}
		s.calibStore = cs.s
		s.calibOwned = true
		return nil
	}
}

// WithCalibrationStore attaches a shared calibration store (the serve daemon
// attaches one per cluster, shared across tenants). The caller owns
// persistence: Session.Close does not save a shared store.
func WithCalibrationStore(cs *CalibrationStore) Option {
	return func(s *Session) error {
		if cs == nil {
			return errors.New("fuseme: WithCalibrationStore(nil)")
		}
		if s.calibStore != nil {
			return errors.New("fuseme: calibration store already configured")
		}
		s.calibStore = cs.s
		return nil
	}
}

// WithReplan enables feedback-directed re-planning between queries: before
// each execution the session compares the previous query's measured stage
// times against their predictions and, when they diverge beyond the default
// threshold, re-picks eligible operators' cuboid partitioning with learned
// bandwidths (when a store is attached) and the current block-cache
// residency. Swaps are constrained to the bit-safe parameter space — R stays
// pinned and aggregation-rooted operators are never touched — so results
// are bit-identical with re-planning on or off. Iterative library runners
// (internal/workloads) re-plan at iteration boundaries the same way.
func WithReplan(on bool) Option {
	return func(s *Session) error {
		s.replan = on
		return nil
	}
}

// resolveCalibration finishes calibration setup after options ran: the
// FUSEME_CALIB fallback, the online learner, and the session replanner.
func (s *Session) resolveCalibration() error {
	if s.calibStore == nil {
		if path := os.Getenv(EnvCalib); path != "" {
			cs, err := obs.OpenCalibStore(path)
			if err != nil {
				return fmt.Errorf("fuseme: %s: %w", EnvCalib, err)
			}
			s.calibStore = cs
			s.calibOwned = true
		}
	}
	if s.calibStore != nil {
		key, err := s.calibKey()
		if err != nil {
			return err
		}
		s.obs.Learn = &obs.Learner{Store: s.calibStore, Key: key, Model: s.calibModel()}
	}
	if s.replan {
		s.replanner = &core.Replanner{Obs: s.obs, Learn: s.obs.Learn}
	}
	return nil
}

// calibKey is the session's calibration-store key: its cluster shape with
// the kernel-thread count resolved (option > env > config).
func (s *Session) calibKey() (obs.CalibKey, error) {
	kt, err := s.kernelThreadsSetting()
	if err != nil {
		return obs.CalibKey{}, err
	}
	return obs.CalibKey{Workers: s.cfg.Nodes, BlockSize: s.cfg.BlockSize, KernelThreads: kt}, nil
}

// learnedBandwidths returns the calibration store's learned B̂n/B̂c for the
// session's cluster shape (zero when no store is attached or no entry
// covers the shape). The values feed cluster.Config.LearnedNetBandwidth /
// LearnedCompBandwidth — plan costing only; the simulated execution clock
// keeps the configured constants, so learning never feeds back into its own
// measurements.
func (s *Session) learnedBandwidths() (netBW, compBW float64) {
	if s.calibStore == nil {
		return 0, 0
	}
	key, err := s.calibKey()
	if err != nil {
		return 0, 0
	}
	if l, ok := s.calibStore.Lookup(key); ok {
		return l.NetBW, l.CompBW
	}
	return 0, 0
}

// residentNames returns the plan-input names whose bound matrices the
// worker block caches still hold from the previous query: the binding's
// content epoch was already fed to the last execution (epochs are globally
// unique and restamped on every mutation, so an unchanged epoch means
// unchanged blocks — the same keying the cache itself uses). Nil when the
// cluster runs no block cache.
func (s *Session) residentNames(rtm interface{ Config() cluster.Config }, needed map[string]*block.Matrix) map[string]bool {
	if rtm.Config().CacheBytes <= 0 || len(s.lastEpochs) == 0 {
		return nil
	}
	var res map[string]bool
	for name, m := range needed {
		if m != nil && s.lastEpochs[m.Epoch()] {
			if res == nil {
				res = map[string]bool{}
			}
			res[name] = true
		}
	}
	return res
}

// snapshotEpochs records which input content epochs this query consumed,
// for the next query's residency check.
func (s *Session) snapshotEpochs(needed map[string]*block.Matrix) {
	if s.replanner == nil {
		return
	}
	set := make(map[uint64]bool, len(needed))
	for _, m := range needed {
		if m != nil {
			set[m.Epoch()] = true
		}
	}
	s.lastEpochs = set
}

// CalibrationGeneration returns the attached store's generation counter, or
// zero when no store is attached.
func (s *Session) CalibrationGeneration() uint64 {
	return s.calibStore.Generation()
}

// ReplanStats reports the session replanner's counters: boundary checks
// performed, checks that swapped at least one operator, and the divergence
// ratio at the last check. All zero when WithReplan is off.
func (s *Session) ReplanStats() (checks, replans int, lastDivergence float64) {
	if s.replanner == nil {
		return 0, 0, 0
	}
	return s.replanner.Checks, s.replanner.Replans, s.replanner.LastDivergence
}
