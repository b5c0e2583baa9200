package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// raceScheme is a minimal keyed scheme shared (attribute-wise) by the
// two relations of the torn-read tests, so set operators apply.
func raceScheme(name string) *schema.Scheme {
	full := lifespan.Interval(0, 999)
	return schema.MustNew(name, []string{"K"},
		schema.Attribute{Name: "K", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "V", Domain: value.Ints, Lifespan: full, Interp: "step"},
	)
}

func raceTuple(s *schema.Scheme, k string, v int64) *core.Tuple {
	return core.NewTupleBuilder(s, lifespan.Interval(0, 9)).
		Key("K", value.String_(k)).
		Set("V", chronon.Time(0), chronon.Time(9), value.Int(v)).
		MustBuild()
}

// TestSnapshotIsolationMultiRelation is the acceptance test of the
// snapshot layer: a writer batch-loads the same keys into relation A
// and then relation B, while concurrent readers run multi-relation
// plans (set difference and equijoin) through runQuery. Every
// result must reflect one epoch-consistent database state:
//
//   - `B MINUS A` is empty at every consistent cut (B's keys always
//     trail A's), so any surviving tuple is a torn read — relation B
//     observed after a batch that A was observed before.
//   - `A MINUS B` holds exactly the batches A has received and B has
//     not; a cardinality that is not a multiple of the batch size
//     means a half-visible batch.
//
// Run under -race; the locking itself is exercised as hard as the
// semantics.
func TestSnapshotIsolationMultiRelation(t *testing.T) {
	sa, sb := raceScheme("A"), raceScheme("B")
	a, b := core.NewRelation(sa), core.NewRelation(sb)
	st := storage.NewStore()
	st.Put(a)
	st.Put(b)
	BuildIndexes(a)
	BuildIndexes(b)

	const rounds, batchN = 80, 5
	writerDone := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			mk := func(s *schema.Scheme) []*core.Tuple {
				ts := make([]*core.Tuple, batchN)
				for j := range ts {
					ts[j] = raceTuple(s, fmt.Sprintf("k%05d", i*batchN+j), int64(j))
				}
				return ts
			}
			if err := a.InsertBatch(mk(sa)); err != nil {
				writerDone <- err
				return
			}
			if err := b.InsertBatch(mk(sb)); err != nil {
				writerDone <- err
				return
			}
		}
		writerDone <- nil
	}()

	queries := []string{
		`B MINUS A`,
		`A MINUS B`,
		`B INTERSECT A`,
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 120; i++ {
				q := queries[(w+i)%len(queries)]
				res, err := run(q, st)
				if err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
				n := res.Relation.Cardinality()
				switch q {
				case `B MINUS A`:
					if n != 0 {
						t.Errorf("torn read: B MINUS A has %d tuples", n)
						return
					}
				case `A MINUS B`, `B INTERSECT A`:
					if n%batchN != 0 {
						t.Errorf("half-visible batch: %s has %d tuples (batch %d)", q, n, batchN)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}

	// Quiesced: everything visible, and the engine still answers.
	res, err := run(`A MINUS B`, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Cardinality() != 0 || a.Cardinality() != rounds*batchN {
		t.Fatalf("final state: |A|=%d |A−B|=%d", a.Cardinality(), res.Relation.Cardinality())
	}
}

// TestSnapshotIsolationIndexJoin is the sharpest torn-read detector:
// an index-lookup equijoin streams REF and probes EMP's key index at
// execution time — against live structures that a writer is growing
// mid-query. The writer adds each round's names to REF one tuple at a
// time, then the same names to EMP as one atomic batch, so at every
// consistent cut the join matches exactly the EMP side: a whole
// number of batches (REF runs ahead mid-round, but unmatched refs
// don't count). A query pinned while REF is mid-round that probes EMP
// live instead of at the pin will observe EMP batches published after
// the pin — including the one covering REF's partial round — and its
// match count stops dividing by the batch size. The snapshot layer
// bounds every probe to the pinned prefix, which is what this test
// proves under -race (disabling the bound makes it fail immediately).
func TestSnapshotIsolationIndexJoin(t *testing.T) {
	full := lifespan.Interval(0, 999)
	es := schema.MustNew("EMP", []string{"NAME"},
		schema.Attribute{Name: "NAME", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "SAL", Domain: value.Ints, Lifespan: full, Interp: "step"},
	)
	rs := schema.MustNew("REF", []string{"RNAME"},
		schema.Attribute{Name: "RNAME", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "BONUS", Domain: value.Ints, Lifespan: full, Interp: "step"},
	)
	emp, ref := core.NewRelation(es), core.NewRelation(rs)
	st := storage.NewStore()
	st.Put(emp)
	st.Put(ref)

	const rounds, batchN, preN = 40, 50, 10000
	// Preload a large matched base (preN pairs) so every join streams
	// for milliseconds — a wide window for the writer's publications to
	// land mid-execution — plus EMP-only filler so EMP stays the larger
	// relation and the cost model streams REF and probes EMP's key
	// index: the orientation where the streamed side is the mid-round
	// pinned relation and the probed side is the one racing ahead,
	// which is exactly where an unbounded probe tears.
	mkOne := func(s *schema.Scheme, key, val, name string, v int) *core.Tuple {
		return core.NewTupleBuilder(s, lifespan.Interval(0, 9)).
			Key(key, value.String_(name)).
			Set(val, chronon.Time(0), chronon.Time(9), value.Int(int64(v))).
			MustBuild()
	}
	preRef := make([]*core.Tuple, 0, preN)
	preEmp := make([]*core.Tuple, 0, preN+4000)
	for i := 0; i < preN; i++ {
		name := fmt.Sprintf("p%06d", i)
		preRef = append(preRef, mkOne(rs, "RNAME", "BONUS", name, i))
		preEmp = append(preEmp, mkOne(es, "NAME", "SAL", name, i))
	}
	for i := 0; i < 4000; i++ {
		preEmp = append(preEmp, mkOne(es, "NAME", "SAL", fmt.Sprintf("x%05d", i), i))
	}
	if err := ref.InsertBatch(preRef); err != nil {
		t.Fatal(err)
	}
	if err := emp.InsertBatch(preEmp); err != nil {
		t.Fatal(err)
	}
	BuildIndexes(emp)
	BuildIndexes(ref)
	mkBatch := func(s *schema.Scheme, key, val string, cycle, round int) []*core.Tuple {
		ts := make([]*core.Tuple, batchN)
		for j := range ts {
			i := round*batchN + j
			ts[j] = core.NewTupleBuilder(s, lifespan.Interval(0, 9)).
				Key(key, value.String_(fmt.Sprintf("c%03dn%05d", cycle, i))).
				Set(val, chronon.Time(0), chronon.Time(9), value.Int(int64(i))).
				MustBuild()
		}
		return ts
	}
	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		// Cycle fresh key ranges until the readers finish, so every
		// query races an in-progress load, pinning REF mid-round.
		for cycle := 0; ; cycle++ {
			for i := 0; i < rounds; i++ {
				select {
				case <-stop:
					writerDone <- nil
					return
				default:
				}
				for _, rt := range mkBatch(rs, "RNAME", "BONUS", cycle, i) {
					if err := ref.Insert(rt); err != nil {
						writerDone <- err
						return
					}
					time.Sleep(50 * time.Microsecond)
				}
				if err := emp.InsertBatch(mkBatch(es, "NAME", "SAL", cycle, i)); err != nil {
					writerDone <- err
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				res, err := run(`REF JOIN EMP ON RNAME = NAME`, st)
				if err != nil {
					t.Errorf("join: %v", err)
					return
				}
				if n := res.Relation.Cardinality(); n%batchN != 0 {
					t.Errorf("torn probe: join matched %d rows, not a whole number of %d-tuple batches", n, batchN)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	res, err := run(`REF JOIN EMP ON RNAME = NAME`, st)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Relation.Cardinality(); got%batchN != 0 {
		t.Fatalf("final join cardinality %d, not a multiple of %d", got, batchN)
	}
	if out, err := explainQuery(`REF JOIN EMP ON RNAME = NAME`, st, false); err != nil ||
		!strings.Contains(out, "key-index EMP.NAME") {
		t.Fatalf("test assumes the stream-REF/probe-EMP orientation, got plan:\n%s (%v)", out, err)
	}
}
