// Package membership tracks the liveness of a FuseME TCP cluster's workers.
//
// The coordinator owns one Table. Each worker is a Member with a stable
// integer ID (its slot in the coordinator's worker slice) and a liveness
// state driven by the heartbeat loop and the FME1 v4 join/leave messages:
//
//	none ──Join──▶ joining ──▶ active ◀──▶ suspect
//	                  │           │            │
//	                  ▼           ▼            ▼
//	                dead        left         dead
//
// Transitions outside that graph are rejected — a dead or left member never
// comes back; a healthy process that wants back in joins again as a NEW
// member with a fresh ID. Every accepted transition bumps the table's
// cluster epoch. The table is the coordinator's one record of its workers:
// dispatch asks it which members are Active, and nothing else keeps a copy.
package membership

import (
	"fmt"
	"sync"
)

// State is a member's position in the liveness state machine.
type State int

// The liveness states, in lifecycle order.
const (
	// None is the pseudo-state before a member exists.
	None State = iota - 1
	// Joining: the join request arrived, the control handshake is underway.
	Joining
	// Active: handshaked and heartbeating; eligible for task dispatch.
	Active
	// Suspect: one transport operation failed; dispatch is paused while the
	// coordinator probes the worker once before giving up on it.
	Suspect
	// Dead: the probe failed too. Terminal — the slot is never reused.
	Dead
	// Left: the worker drained and departed voluntarily (msgLeave).
	// Terminal, like Dead, but distinguishes operator intent in /v1/status.
	Left
)

// String returns the state's wire/metrics label.
func (s State) String() string {
	switch s {
	case None:
		return "none"
	case Joining:
		return "joining"
	case Active:
		return "active"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	case Left:
		return "left"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// states lists every real state, in lifecycle order, so the counts (and the
// gauges fed from them) exist at zero before a state is ever entered.
func states() []State { return []State{Joining, Active, Suspect, Dead, Left} }

// legal is the transition graph. Dead and Left are terminal.
var legal = map[State][]State{
	Joining: {Active, Dead},
	Active:  {Suspect, Left},
	Suspect: {Active, Dead, Left},
	Dead:    {},
	Left:    {},
}

// canTransition reports whether from → to is a legal edge.
func canTransition(from, to State) bool {
	for _, s := range legal[from] {
		if s == to {
			return true
		}
	}
	return false
}

// Member is one worker's row in the table.
type Member struct {
	// ID is the worker's stable slot index; never reused.
	ID int
	// Addr is the worker's task-listener address.
	Addr string
	// State is the current liveness state.
	State State
	// Epoch is the cluster epoch at the member's last transition.
	Epoch uint64
}

// Table is the coordinator-side membership table. All methods are safe for
// concurrent use; the change callback runs outside the table lock, so it may
// call back into the table.
type Table struct {
	mu       sync.Mutex
	members  []Member
	epoch    uint64
	onChange func()
	watch    chan struct{}
}

// NewTable returns an empty table at epoch 0.
func NewTable() *Table { return &Table{} }

// Watch returns a channel closed at the next accepted membership change.
// Waiters snapshot the channel BEFORE inspecting the table, check their
// condition, and block on the channel only if it does not hold yet — the
// close wakes them to re-check, so no caller needs to sleep-poll. Each
// accepted change closes the current channel and installs a fresh one.
func (t *Table) Watch() <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.watch == nil {
		t.watch = make(chan struct{})
	}
	return t.watch
}

// commitLocked publishes an accepted change: it wakes Watch waiters,
// releases t.mu (which the caller holds) and runs the change callback.
func (t *Table) commitLocked() {
	if t.watch != nil {
		close(t.watch)
		t.watch = nil
	}
	fn := t.onChange
	t.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// OnChange installs the callback invoked (synchronously, outside the table
// lock) after every accepted change. Install it before the first Join; a
// second call replaces the first.
func (t *Table) OnChange(fn func()) {
	t.mu.Lock()
	t.onChange = fn
	t.mu.Unlock()
}

// Join adds a new member in the Joining state and returns its row. IDs are
// assigned densely in join order and never reused.
func (t *Table) Join(addr string) Member {
	t.mu.Lock()
	t.epoch++
	m := Member{ID: len(t.members), Addr: addr, State: Joining, Epoch: t.epoch}
	t.members = append(t.members, m)
	t.commitLocked()
	return m
}

// Transition moves member id to state to, enforcing the legal edges. It
// returns the updated row, or an error naming the illegal edge. A
// no-op transition (already in to) is an error too: the state machine has no
// self-loops, and callers rely on "accepted ⇒ something changed".
func (t *Table) Transition(id int, to State) (Member, error) {
	t.mu.Lock()
	if id < 0 || id >= len(t.members) {
		t.mu.Unlock()
		return Member{}, fmt.Errorf("membership: no member %d", id)
	}
	from := t.members[id].State
	if !canTransition(from, to) {
		t.mu.Unlock()
		return Member{}, fmt.Errorf("membership: illegal transition %s -> %s for member %d", from, to, id)
	}
	t.epoch++
	t.members[id].State = to
	t.members[id].Epoch = t.epoch
	m := t.members[id]
	t.commitLocked()
	return m, nil
}

// Activate marks a joining member active (handshake completed).
func (t *Table) Activate(id int) (Member, error) { return t.Transition(id, Active) }

// Suspect pauses dispatch to an active member after a transport failure.
func (t *Table) Suspect(id int) (Member, error) { return t.Transition(id, Suspect) }

// Confirm returns a suspect member to active (the probe succeeded).
func (t *Table) Confirm(id int) (Member, error) { return t.Transition(id, Active) }

// MarkDead evicts a member whose probe failed (or whose handshake never
// completed).
func (t *Table) MarkDead(id int) (Member, error) { return t.Transition(id, Dead) }

// Leave records a voluntary departure.
func (t *Table) Leave(id int) (Member, error) { return t.Transition(id, Left) }

// Get returns member id's row.
func (t *Table) Get(id int) (Member, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 || id >= len(t.members) {
		return Member{}, false
	}
	return t.members[id], true
}

// Members returns a snapshot of every row, in ID order.
func (t *Table) Members() []Member {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Member, len(t.members))
	copy(out, t.members)
	return out
}

// Epoch returns the cluster epoch: the count of accepted changes since the
// table was created. Two equal epochs imply identical membership.
func (t *Table) Epoch() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// IsActive reports whether member id is Active: the one test of whether a
// worker takes tasks.
func (t *Table) IsActive(id int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return id >= 0 && id < len(t.members) && t.members[id].State == Active
}

// ActiveCount returns how many members are currently active.
func (t *Table) ActiveCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, m := range t.members {
		if m.State == Active {
			n++
		}
	}
	return n
}

// CountByState returns the number of members in each state. Every real
// state is present in the result, possibly at zero.
func (t *Table) CountByState() map[State]int {
	out := make(map[State]int, len(legal))
	for _, s := range states() {
		out[s] = 0
	}
	t.mu.Lock()
	for _, m := range t.members {
		out[m.State]++
	}
	t.mu.Unlock()
	return out
}
