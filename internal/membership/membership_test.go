package membership

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
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
	for _, from := range States() {
		for _, to := range States() {
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
	if tbl.Epoch() != 2 || tbl.Changes() != 2 {
		t.Fatalf("epoch/changes = %d/%d, want 2/2", tbl.Epoch(), tbl.Changes())
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

// TestEvents: the change callback sees every accepted transition with the
// right endpoints, and runs outside the lock (it can call the table).
func TestEvents(t *testing.T) {
	tbl := NewTable()
	var events []Event
	tbl.OnChange(func(ev Event) {
		_ = tbl.Epoch() // must not deadlock
		events = append(events, ev)
	})
	m := tbl.Join("a")
	tbl.Activate(m.ID)
	tbl.Suspect(m.ID)
	tbl.Confirm(m.ID)
	tbl.Leave(m.ID)
	wantFrom := []State{None, Joining, Active, Suspect, Active}
	wantTo := []State{Joining, Active, Suspect, Active, Left}
	if len(events) != len(wantTo) {
		t.Fatalf("saw %d events, want %d", len(events), len(wantTo))
	}
	for i, ev := range events {
		if ev.From != wantFrom[i] || ev.To != wantTo[i] {
			t.Errorf("event %d: %s -> %s, want %s -> %s", i, ev.From, ev.To, wantFrom[i], wantTo[i])
		}
		if ev.Epoch != uint64(i+1) {
			t.Errorf("event %d: epoch %d, want %d", i, ev.Epoch, i+1)
		}
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

// TestFingerprint: the fingerprint pins both the epoch and the active set,
// so any accepted change — even one that restores the same active set —
// yields a fresh fingerprint and therefore a fresh plan-cache key.
func TestFingerprint(t *testing.T) {
	tbl := NewTable()
	a := tbl.Join("a")
	b := tbl.Join("b")
	tbl.Activate(a.ID)
	tbl.Activate(b.ID)
	fp1 := tbl.Fingerprint()
	if !strings.Contains(fp1, "a0,1") {
		t.Fatalf("fingerprint %q does not list active ids", fp1)
	}
	tbl.Suspect(b.ID)
	fp2 := tbl.Fingerprint()
	if fp2 == fp1 {
		t.Fatal("fingerprint unchanged after suspect")
	}
	tbl.Confirm(b.ID)
	fp3 := tbl.Fingerprint()
	if fp3 == fp1 || fp3 == fp2 {
		t.Fatal("fingerprint must change on every epoch bump")
	}
}

// TestTableConcurrency hammers the table from many goroutines under -race:
// joins, legal and illegal transitions, reads. Invariant: epoch ==
// changes == number of accepted mutations.
func TestTableConcurrency(t *testing.T) {
	tbl := NewTable()
	var accepted sync.Map
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				switch rng.Intn(4) {
				case 0:
					m := tbl.Join(fmt.Sprintf("g%d-%d", g, i))
					accepted.Store(fmt.Sprintf("j%d-%d", g, i), m.ID)
				case 1:
					tbl.Transition(rng.Intn(20), State(rng.Intn(5)))
				case 2:
					tbl.Members()
					tbl.CountByState()
				default:
					tbl.Fingerprint()
					tbl.ActiveCount()
				}
			}
		}(g)
	}
	wg.Wait()
	if tbl.Epoch() != uint64(tbl.Changes()) {
		t.Fatalf("epoch %d != changes %d", tbl.Epoch(), tbl.Changes())
	}
	// IDs must be dense: members[i].ID == i.
	for i, m := range tbl.Members() {
		if m.ID != i {
			t.Fatalf("member %d has id %d", i, m.ID)
		}
	}
}
