package membership

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestTransitionMatrix checks every (from, to) pair against the documented
// state machine: exactly the legal edges are accepted, everything else —
// including self-loops and resurrection from dead/left — is rejected.
func TestTransitionMatrix(t *testing.T) {
	want := map[State]map[State]bool{
		Joining: {Active: true, Dead: true},
		Active:  {Suspect: true, Left: true},
		Suspect: {Active: true, Dead: true, Left: true},
		Dead:    {},
		Left:    {},
	}
	for _, from := range states() {
		for _, to := range states() {
			// Build a fresh member and walk it into state from.
			tbl := NewTable()
			m := tbl.Join("w")
			if err := walkTo(tbl, m.ID, from); err != nil {
				t.Fatalf("setup %s: %v", from, err)
			}
			_, err := tbl.Transition(m.ID, to)
			if want[from][to] && err != nil {
				t.Errorf("%s -> %s: legal edge rejected: %v", from, to, err)
			}
			if !want[from][to] && err == nil {
				t.Errorf("%s -> %s: illegal edge accepted", from, to)
			}
		}
	}
}

// walkTo drives a joining member into state s along legal edges only.
func walkTo(tbl *Table, id int, s State) error {
	path := map[State][]State{
		Joining: nil,
		Active:  {Active},
		Suspect: {Active, Suspect},
		Dead:    {Active, Suspect, Dead},
		Left:    {Active, Left},
	}
	steps, ok := path[s]
	if !ok {
		return fmt.Errorf("no path to %s", s)
	}
	for _, step := range steps {
		if _, err := tbl.Transition(id, step); err != nil {
			return err
		}
	}
	return nil
}

func TestTransitionUnknownMember(t *testing.T) {
	tbl := NewTable()
	if _, err := tbl.Transition(0, Active); err == nil {
		t.Fatal("transition on empty table accepted")
	}
	tbl.Join("w")
	if _, err := tbl.Transition(1, Active); err == nil {
		t.Fatal("transition on out-of-range id accepted")
	}
	if _, err := tbl.Transition(-1, Active); err == nil {
		t.Fatal("transition on negative id accepted")
	}
}

// TestEpochMonotonic: every accepted change bumps the epoch by exactly one;
// rejected changes leave it untouched.
func TestEpochMonotonic(t *testing.T) {
	tbl := NewTable()
	if tbl.Epoch() != 0 {
		t.Fatalf("fresh table epoch = %d, want 0", tbl.Epoch())
	}
	m := tbl.Join("a")
	if tbl.Epoch() != 1 {
		t.Fatalf("after join epoch = %d, want 1", tbl.Epoch())
	}
	if _, err := tbl.Activate(m.ID); err != nil {
		t.Fatal(err)
	}
	if tbl.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", tbl.Epoch())
	}
	if _, err := tbl.Activate(m.ID); err == nil {
		t.Fatal("self-loop accepted")
	}
	if tbl.Epoch() != 2 {
		t.Fatalf("rejected transition moved the epoch to %d", tbl.Epoch())
	}
	got, _ := tbl.Get(m.ID)
	if got.Epoch != 2 || got.State != Active {
		t.Fatalf("member row = %+v", got)
	}
}

// TestOnChange: the change callback runs once per accepted transition, after
// the change is visible and outside the lock (it can call the table).
func TestOnChange(t *testing.T) {
	tbl := NewTable()
	var epochs []uint64
	tbl.OnChange(func() { epochs = append(epochs, tbl.Epoch()) })
	m := tbl.Join("a")
	tbl.Activate(m.ID)
	tbl.Activate(m.ID) // rejected: no callback
	tbl.Suspect(m.ID)
	tbl.Confirm(m.ID)
	tbl.Leave(m.ID)
	if want := []uint64{1, 2, 3, 4, 5}; fmt.Sprint(epochs) != fmt.Sprint(want) {
		t.Fatalf("callback saw epochs %v, want %v", epochs, want)
	}
}

// TestIsActive: exactly the Active members take tasks; unknown ids do not.
func TestIsActive(t *testing.T) {
	tbl := NewTable()
	for _, s := range states() {
		m := tbl.Join(s.String())
		if err := walkTo(tbl, m.ID, s); err != nil {
			t.Fatal(err)
		}
		if got := tbl.IsActive(m.ID); got != (s == Active) {
			t.Errorf("IsActive in state %s = %v", s, got)
		}
	}
	if tbl.IsActive(-1) || tbl.IsActive(len(states())) {
		t.Error("IsActive true for an id that is not in the table")
	}
	if got := testing.AllocsPerRun(100, func() { tbl.IsActive(1) }); got != 0 {
		t.Errorf("IsActive allocates %.0f times", got)
	}
}

// TestRejoinIsNewMember: a dead worker's ID is never reused; the same
// address joining again gets a fresh row.
func TestRejoinIsNewMember(t *testing.T) {
	tbl := NewTable()
	a := tbl.Join("w:1")
	tbl.Activate(a.ID)
	tbl.Suspect(a.ID)
	tbl.MarkDead(a.ID)
	b := tbl.Join("w:1")
	if b.ID == a.ID {
		t.Fatalf("rejoin reused id %d", a.ID)
	}
	tbl.Activate(b.ID)
	got, _ := tbl.Get(a.ID)
	if got.State != Dead {
		t.Fatalf("old row state = %s, want dead", got.State)
	}
	if n := tbl.ActiveCount(); n != 1 {
		t.Fatalf("active count = %d, want 1", n)
	}
}

func TestCountsByState(t *testing.T) {
	tbl := NewTable()
	ids := make([]int, 5)
	for i := range ids {
		ids[i] = tbl.Join(fmt.Sprintf("w:%d", i)).ID
	}
	for _, id := range ids[:4] {
		tbl.Activate(id)
	}
	tbl.Suspect(ids[1])
	tbl.Suspect(ids[2])
	tbl.MarkDead(ids[2])
	tbl.Leave(ids[3])
	// ids[4] stays joining.
	counts := tbl.CountByState()
	want := map[State]int{Joining: 1, Active: 1, Suspect: 1, Dead: 1, Left: 1}
	for s, n := range want {
		if counts[s] != n {
			t.Errorf("count[%s] = %d, want %d", s, counts[s], n)
		}
	}
	if n := tbl.ActiveCount(); n != 1 {
		t.Errorf("active count = %d, want 1", n)
	}
}

// TestTableConcurrency hammers the table from many goroutines under -race:
// joins, legal and illegal transitions, reads. Invariant: the epoch counts
// the accepted mutations, and IDs stay dense.
func TestTableConcurrency(t *testing.T) {
	tbl := NewTable()
	var accepted atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				switch rng.Intn(4) {
				case 0:
					tbl.Join(fmt.Sprintf("g%d-%d", g, i))
					accepted.Add(1)
				case 1:
					if _, err := tbl.Transition(rng.Intn(20), State(rng.Intn(5))); err == nil {
						accepted.Add(1)
					}
				case 2:
					tbl.Members()
					tbl.CountByState()
				default:
					tbl.IsActive(rng.Intn(20))
					tbl.ActiveCount()
				}
			}
		}(g)
	}
	wg.Wait()
	if tbl.Epoch() != accepted.Load() {
		t.Fatalf("epoch %d != %d accepted changes", tbl.Epoch(), accepted.Load())
	}
	// IDs must be dense: members[i].ID == i.
	for i, m := range tbl.Members() {
		if m.ID != i {
			t.Fatalf("member %d has id %d", i, m.ID)
		}
	}
}
