package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// testLogger is a GroupLogger backed by a function. It is used through
// a pointer, as Commit compares loggers by identity.
type testLogger struct {
	log func(*WriteGroup) error
}

func (l *testLogger) LogGroup(g *WriteGroup) error { return l.log(g) }

// TestCommitHookErrorAborts: a logger error must behave exactly like a
// validation failure — no tuples applied, no version bump, no epoch
// tick, and the group reported as aborted. The other parallel tests of
// this package commit only unpublished relations or refused groups, so
// none of them ticks the epoch under the check.
func TestCommitHookErrorAborts(t *testing.T) {
	t.Parallel()
	s1, s2 := kvScheme("HookA"), kvScheme("HookB")
	a, b := NewRelation(s1), NewRelation(s2)
	a.MarkPublished()
	b.MarkPublished()

	logErr := errors.New("durability layer said no")
	lg := &testLogger{log: func(*WriteGroup) error { return logErr }}
	a.SetLogger(lg)
	b.SetLogger(lg)

	e0 := Epoch()
	g := NewWriteGroup()
	g.Insert(a, kvTuple(s1, "k1", 1, 0, 9))
	g.Insert(b, kvTuple(s2, "k2", 2, 0, 9))
	if err := g.Commit(); !errors.Is(err, logErr) {
		t.Fatalf("Commit error = %v, want the logger error", err)
	}
	if a.Cardinality() != 0 || b.Cardinality() != 0 {
		t.Fatalf("logger abort applied tuples: |a|=%d |b|=%d", a.Cardinality(), b.Cardinality())
	}
	if a.Version() != 0 || b.Version() != 0 {
		t.Fatalf("logger abort bumped versions: %d, %d", a.Version(), b.Version())
	}
	if Epoch() != e0 {
		t.Fatal("logger abort ticked the epoch")
	}

	// Once the logger accepts, the same group commits cleanly — the
	// abort left it re-commitable, like a corrected validation failure.
	lg.log = func(*WriteGroup) error { return nil }
	if err := g.Commit(); err != nil {
		t.Fatal(err)
	}
	if a.Cardinality() != 1 || b.Cardinality() != 1 {
		t.Fatalf("recommit applied |a|=%d |b|=%d, want 1 and 1", a.Cardinality(), b.Cardinality())
	}
}

// TestCommitHookSeesStagedOps: the logger observes the ops of its own
// relations via Ops in staging order, before anything applies; ops on
// an unlogged relation of the same group are not handed to it.
func TestCommitHookSeesStagedOps(t *testing.T) {
	t.Parallel()
	s1, s2, s3 := kvScheme("HookC"), kvScheme("HookD"), kvScheme("HookE")
	a, b, c := NewRelation(s1), NewRelation(s2), NewRelation(s3)

	type seenOp struct {
		rel     string
		merging bool
	}
	var seen []seenOp
	cardAtLog := -1
	lg := &testLogger{log: func(g *WriteGroup) error {
		g.Ops(func(r *Relation, _ *Tuple, merging bool) {
			seen = append(seen, seenOp{rel: r.Scheme().Name, merging: merging})
		})
		// The logger runs pre-apply: the relations are still empty.
		cardAtLog = len(a.tuples) + len(b.tuples) + len(c.tuples)
		return nil
	}}
	a.SetLogger(lg)
	b.SetLogger(lg)

	g := NewWriteGroup()
	g.Insert(a, kvTuple(s1, "x", 1, 0, 4))
	g.Insert(c, kvTuple(s3, "z", 3, 0, 4))
	g.InsertMerging(b, kvTuple(s2, "y", 2, 0, 4))
	g.InsertMerging(a, kvTuple(s1, "x", 1, 5, 9))
	if err := g.Commit(); err != nil {
		t.Fatal(err)
	}
	if cardAtLog != 0 {
		t.Fatalf("logger saw %d applied tuples, want 0", cardAtLog)
	}
	want := []seenOp{
		{rel: "HookC", merging: false},
		{rel: "HookC", merging: true},
		{rel: "HookD", merging: true},
	}
	if len(seen) != len(want) {
		t.Fatalf("Ops walked %v, want %v", seen, want)
	}
	for i, w := range want {
		if seen[i] != w {
			t.Errorf("op %d = %+v, want %+v", i, seen[i], w)
		}
	}
	if a.Cardinality() != 1 || b.Cardinality() != 1 || c.Cardinality() != 1 {
		t.Fatalf("commit applied |a|=%d |b|=%d |c|=%d, want 1 each", a.Cardinality(), b.Cardinality(), c.Cardinality())
	}
}

// TestWriteGroupTwoLoggersRefused: a group over relations with two
// different loggers is refused before either logger runs, and nothing
// applies.
func TestWriteGroupTwoLoggersRefused(t *testing.T) {
	t.Parallel()
	s1, s2 := kvScheme("HookF"), kvScheme("HookG")
	a, b := NewRelation(s1), NewRelation(s2)
	calls := 0
	count := func(*WriteGroup) error { calls++; return nil }
	a.SetLogger(&testLogger{log: count})
	b.SetLogger(&testLogger{log: count})

	g := NewWriteGroup()
	g.Insert(a, kvTuple(s1, "k", 1, 0, 9))
	g.Insert(b, kvTuple(s2, "k", 1, 0, 9))
	if err := g.Commit(); !errors.Is(err, errTwoLoggers) {
		t.Fatalf("Commit error = %v, want the two-loggers refusal", err)
	}
	if calls != 0 {
		t.Fatalf("a logger ran %d times for a refused group", calls)
	}
	if a.Cardinality() != 0 || b.Cardinality() != 0 || a.Version() != 0 || b.Version() != 0 {
		t.Fatal("refused group applied tuples or bumped versions")
	}
}

// TestSetLoggerRacesCommit: a logger set and cleared while groups
// commit (a store's Put and Close racing writers) sees each group at
// most once, and every group applies.
func TestSetLoggerRacesCommit(t *testing.T) {
	t.Parallel()
	s := kvScheme("HookH")
	r := NewRelation(s)
	var mu sync.Mutex
	logged := map[string]bool{}
	lg := &testLogger{log: func(g *WriteGroup) error {
		mu.Lock()
		defer mu.Unlock()
		g.Ops(func(_ *Relation, tp *Tuple, _ bool) {
			ks := tp.keyString(s)
			if logged[ks] {
				t.Errorf("key %s logged twice", ks)
			}
			logged[ks] = true
		})
		return nil
	}}
	const writers, per = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				g := NewWriteGroup()
				g.Insert(r, kvTuple(s, fmt.Sprintf("w%d-%d", w, i), int64(i), 0, 9))
				if err := g.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < writers*per; i++ {
		if i%2 == 0 {
			r.SetLogger(lg)
		} else {
			r.SetLogger(nil)
		}
	}
	wg.Wait()
	if r.Cardinality() != writers*per {
		t.Fatalf("|r| = %d, want %d", r.Cardinality(), writers*per)
	}
}
