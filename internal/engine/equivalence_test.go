package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/hql"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// testStore builds a store with the workload generators' relations plus
// a REF relation keyed by employee name, so equijoins have a disjoint
// second operand with both key and non-key indexable attributes.
func testStore(tb testing.TB, seed int64) *storage.Store {
	tb.Helper()
	st := storage.NewStore()
	emp := workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 60, HistoryLen: 200, ChangeEvery: 12, ReincarnationProb: 0.4, Seed: seed,
	})
	st.Put(emp)
	st.Put(workload.Stock(workload.StockConfig{
		NumStocks: 15, HistoryLen: 120, VolumeGapLo: 0.3, VolumeGapHi: 0.6, Seed: seed + 1,
	}))

	full := lifespan.Interval(0, 199)
	rs := schema.MustNew("REF", []string{"RNAME"},
		schema.Attribute{Name: "RNAME", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "BONUS", Domain: value.Ints, Lifespan: full, Interp: "step"},
		schema.Attribute{Name: "GRP", Domain: value.Strings, Lifespan: full},
	)
	ref := core.NewRelation(rs)
	rng := rand.New(rand.NewSource(seed + 2))
	for i := 0; i < 25; i++ {
		// Half the names resolve to employees, half dangle.
		n := rng.Intn(120)
		lo := chronon.Time(rng.Intn(150))
		hi := lo + chronon.Time(1+rng.Intn(49))
		b := core.NewTupleBuilder(rs, lifespan.Interval(lo, hi))
		b.Key("RNAME", value.String_(fmt.Sprintf("emp%04d", n)))
		b.Set("BONUS", lo, hi, value.Int(int64(1000*rng.Intn(10))))
		b.SetConst("GRP", value.String_([]string{"A", "B", "C"}[rng.Intn(3)]))
		t, err := b.Build()
		if err != nil {
			tb.Fatalf("build REF tuple: %v", err)
		}
		if err := ref.Insert(t); err != nil {
			continue // duplicate name; skip
		}
	}
	st.Put(ref)
	return st
}

// compareQuery runs one query through the naive evaluator and the
// engine and requires identical outcomes — same error presence, and for
// successes an Equal relation/lifespan/snapshot AND an identical
// canonical rendering (byte-for-byte).
func compareQuery(t *testing.T, env hql.Env, q string) {
	t.Helper()
	e, err := hql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	nRes, nErr := hql.EvalNaive(e, env)
	gRes, gErr := evalExpr(context.Background(), e, env, testWorkers)
	if (nErr != nil) != (gErr != nil) {
		t.Fatalf("%q: naive err=%v, engine err=%v", q, nErr, gErr)
	}
	if nErr != nil {
		return
	}
	switch {
	case nRes.Relation != nil:
		if gRes.Relation == nil {
			t.Fatalf("%q: engine returned non-relation", q)
		}
		if !nRes.Relation.Equal(gRes.Relation) {
			t.Fatalf("%q: relations differ\nnaive:\n%s\nengine:\n%s", q, nRes.Relation, gRes.Relation)
		}
		if nRes.Relation.String() != gRes.Relation.String() {
			t.Fatalf("%q: canonical renderings differ\nnaive:\n%s\nengine:\n%s", q, nRes.Relation, gRes.Relation)
		}
	case nRes.Lifespan != nil:
		if gRes.Lifespan == nil || !nRes.Lifespan.Equal(*gRes.Lifespan) {
			t.Fatalf("%q: lifespans differ: naive %v engine %v", q, nRes.Lifespan, gRes.Lifespan)
		}
	case nRes.Snapshot != nil:
		if gRes.Snapshot == nil || nRes.Snapshot.String() != gRes.Snapshot.String() {
			t.Fatalf("%q: snapshots differ\nnaive:\n%s\nengine:\n%v", q, nRes.Snapshot, gRes.Snapshot)
		}
	}
}

// TestEquivalenceFixedBattery runs a hand-picked battery covering every
// plan node: index time-slice, index selects (key, attribute, interval),
// streaming filters/projections, index lookup joins, and the naive
// fallbacks.
func TestEquivalenceFixedBattery(t *testing.T) {
	st := testStore(t, 1)
	queries := []string{
		`TIMESLICE EMP AT {[0,9]}`,
		`TIMESLICE EMP AT {[50,60],[150,160]}`,
		`TIMESLICE EMP AT {}`,
		`TIMESLICE EMP AT {[-inf,+inf]}`,
		`TIMESLICE STOCK BY EX_DIV`,
		`SELECT WHEN NAME = 'emp0007' FROM EMP`,
		`SELECT IF NAME = 'emp0007' EXISTS FROM EMP`,
		`SELECT WHEN NAME = 'nobody' FROM EMP`,
		`SELECT WHEN DEPT = 'Toys' FROM EMP`,
		`SELECT IF DEPT = 'Toys' FORALL FROM EMP`,
		`SELECT WHEN SAL > 30000 AND DEPT = 'Books' FROM EMP`,
		`SELECT WHEN SAL > 30000 OR DEPT = 'Books' FROM EMP`,
		`SELECT WHEN NOT (DEPT = 'Books') FROM EMP`,
		`SELECT IF SAL >= 34000 EXISTS DURING {[20,40]} FROM EMP`,
		`SELECT IF SAL >= 34000 FORALL DURING {[20,40]} FROM EMP`,
		`SELECT WHEN SAL > 28000 DURING {[100,110]} FROM EMP`,
		`SELECT WHEN GRP = 'A' FROM REF`,
		`PROJECT NAME, SAL FROM EMP`,
		`PROJECT DEPT FROM EMP`,
		`PROJECT NAME FROM (TIMESLICE EMP AT {[10,30]})`,
		`SELECT WHEN SAL > 26000 FROM (TIMESLICE EMP AT {[5,25]})`,
		`TIMESLICE (SELECT WHEN DEPT = 'Shoes' FROM EMP) AT {[0,99]}`,
		`(TIMESLICE EMP AT {[0,80]}) UNIONMERGE (TIMESLICE EMP AT {[60,199]})`,
		`EMP MINUSMERGE (TIMESLICE EMP AT {[0,99]})`,
		`EMP INTERSECTMERGE (TIMESLICE EMP AT {[40,160]})`,
		`EMP JOIN REF ON NAME = RNAME`,
		`REF JOIN EMP ON RNAME = NAME`,
		`(TIMESLICE EMP AT {[0,49]}) JOIN REF ON NAME = RNAME`,
		`(SELECT WHEN DEPT = 'Toys' FROM EMP) JOIN REF ON NAME = RNAME`,
		`EMP JOIN REF ON DEPT = GRP`,
		`EMP JOIN REF ON SAL > BONUS`,
		`EMP OUTERJOIN REF ON NAME = RNAME`,
		`PROJECT NAME, RNAME, BONUS FROM (EMP JOIN REF ON NAME = RNAME)`,
		`WHEN (SELECT WHEN SAL = 30000 FROM EMP)`,
		`TIMESLICE EMP AT WHEN (SELECT WHEN DEPT = 'Toys' FROM EMP)`,
		`TIMESLICE EMP AT {[0,60]} INTERSECT {[30,90]}`,
		`SNAPSHOT EMP AT 42`,
		`SNAPSHOT (EMP JOIN REF ON NAME = RNAME) AT 42`,
		`MATERIALIZE (TIMESLICE STOCK AT {[10,20]})`,
		`RENAME EMP AS e`,
		`EMP NATJOIN EMP`,
	}
	for _, q := range queries {
		compareQuery(t, st, q)
	}
}

// TestEquivalenceRandomized drives randomized workloads and randomized
// queries — the property test the ISSUE's acceptance criteria name.
func TestEquivalenceRandomized(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		st := testStore(t, seed*100)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 40; i++ {
			lo := rng.Intn(220) - 10
			hi := lo + rng.Intn(80)
			name := fmt.Sprintf("emp%04d", rng.Intn(80))
			dept := []string{"Toys", "Shoes", "Books", "Tools", "Music"}[rng.Intn(5)]
			sal := 24000 + rng.Intn(30)*1000
			queries := []string{
				fmt.Sprintf(`TIMESLICE EMP AT {[%d,%d]}`, lo, hi),
				fmt.Sprintf(`SELECT WHEN NAME = '%s' FROM EMP`, name),
				fmt.Sprintf(`SELECT WHEN SAL > %d AND DEPT = '%s' FROM EMP`, sal, dept),
				fmt.Sprintf(`SELECT IF SAL > %d EXISTS DURING {[%d,%d]} FROM EMP`, sal, lo, hi),
				fmt.Sprintf(`SELECT IF DEPT = '%s' FORALL DURING {[%d,%d]} FROM EMP`, dept, lo, hi),
				fmt.Sprintf(`SELECT WHEN DEPT = '%s' DURING {[%d,%d]} FROM EMP`, dept, lo, hi),
				fmt.Sprintf(`(TIMESLICE EMP AT {[%d,%d]}) JOIN REF ON NAME = RNAME`, lo, hi),
				fmt.Sprintf(`SNAPSHOT EMP AT %d`, lo+rng.Intn(40)),
				fmt.Sprintf(`WHEN (SELECT WHEN DEPT = '%s' DURING {[%d,%d]} FROM EMP)`, dept, lo, hi),
			}
			compareQuery(t, st, queries[i%len(queries)])
		}
	}
}

// TestEngineConcurrentQueries hammers one shared store from several
// goroutines so `go test -race` exercises the catalog's lazy index
// builds and the shared plan cache.
func TestEngineConcurrentQueries(t *testing.T) {
	st := testStore(t, 9)
	queries := []string{
		`TIMESLICE EMP AT {[10,30]}`,
		`SELECT WHEN NAME = 'emp0003' FROM EMP`,
		`EMP JOIN REF ON NAME = RNAME`,
		`SELECT WHEN DEPT = 'Toys' DURING {[5,60]} FROM EMP`,
		`EMP JOIN REF ON DEPT = GRP`,
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 20; i++ {
				if _, err := run(queries[(g+i)%len(queries)], st); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent query failed: %v", err)
		}
	}
}
