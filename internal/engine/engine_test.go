package engine

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hql"
	"repro/internal/lifespan"
	"repro/internal/value"
	"repro/internal/workload"
)

// TestPlanShapes asserts the planner actually picks the indexed
// operators — equivalence alone would pass even if every query fell
// back to a scan.
func TestPlanShapes(t *testing.T) {
	st := testStore(t, 3)
	cases := []struct {
		query, want string
	}{
		{`TIMESLICE EMP AT {[0,9]}`, "index-time-slice EMP"},
		{`SELECT WHEN NAME = 'emp0001' FROM EMP`, "key-index EMP.NAME"},
		{`SELECT WHEN GRP = 'A' FROM REF`, "attr-index(GRP"},
		{`SELECT WHEN SAL > 30000 DURING {[5,15]} FROM EMP`, "interval-index during"},
		{`EMP JOIN REF ON NAME = RNAME`, "index-lookup-join"},
		{`EMP JOIN REF ON NAME = RNAME`, "key-index"},
		{`SELECT IF SAL > 1 FORALL FROM EMP`, "filter if-forall"},
		{`PROJECT NAME, SAL FROM EMP`, "project NAME, SAL (key kept)"},
		{`PROJECT DEPT FROM EMP`, "project DEPT (naive)"},
		{`EMP NATJOIN EMP`, "natural-join (naive)"},
		{`TIMESLICE EMP AT {[-inf,+inf]}`, "time-slice at"},
	}
	for _, c := range cases {
		out, err := explainQuery(c.query, st, false)
		if err != nil {
			t.Fatalf("explain %q: %v", c.query, err)
		}
		if !strings.Contains(out, c.want) {
			t.Errorf("explain %q:\n%s\nwant substring %q", c.query, out, c.want)
		}
	}
}

// testWorkers is the degree OpenDB gives a DB by default; the
// in-package tests run the unexported query helpers at it, the way a
// Session over a default DB does.
var testWorkers = runtime.GOMAXPROCS(0)

// run executes src as Session.Query does with the optimizer off.
func run(src string, env hql.Env) (hql.Result, error) {
	return runQuery(context.Background(), src, env, testWorkers, false)
}

// TestCatalogInvalidation checks that indexes rebuild when a relation
// grows — stale candidate sets would silently drop new tuples.
func TestCatalogInvalidation(t *testing.T) {
	r := workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 10, HistoryLen: 100, ChangeEvery: 10, ReincarnationProb: 0, Seed: 21,
	})
	before := Indexes(r).Interval().Tuples()
	if before != 10 {
		t.Fatalf("indexed %d tuples, want 10", before)
	}
	more := workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 11, HistoryLen: 100, ChangeEvery: 10, ReincarnationProb: 0, Seed: 22,
	})
	extra := more.Tuples()[10]
	// Re-key the extra tuple via a fresh builder path: just insert it
	// under its own (distinct) name.
	if err := r.Insert(extra); err != nil {
		t.Fatalf("insert: %v", err)
	}
	after := Indexes(r).Interval().Tuples()
	if after != 11 {
		t.Fatalf("after insert indexed %d tuples, want 11 (stale index served)", after)
	}
}

// TestAttrIndexBuckets sanity-checks the constant/varying split on a
// relation where both occur.
func TestAttrIndexBuckets(t *testing.T) {
	r := workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 30, HistoryLen: 150, ChangeEvery: 10, ReincarnationProb: 0.3, Seed: 13,
	})
	ix := NewAttrIndex(r, "NAME") // key: every tuple constant
	if len(ix.Varying()) != 0 {
		t.Fatalf("NAME index has %d varying tuples, want 0", len(ix.Varying()))
	}
	if ix.DistinctValues() != r.Cardinality() {
		t.Fatalf("NAME index has %d values, want %d", ix.DistinctValues(), r.Cardinality())
	}
	got := ix.Probe(value.String_("emp0004"))
	if len(got) != 1 {
		t.Fatalf("probe emp0004 returned %d tuples, want 1", len(got))
	}
	dix := NewAttrIndex(r, "DEPT") // mostly varying
	if len(dix.Varying())+dix.DistinctValues() == 0 {
		t.Fatalf("DEPT index indexed nothing")
	}
}

// TestEquiJoinProbeDirect exercises core.EquiJoinProbe — the index
// lookup join fast path — against the naive nested-loop EquiJoin,
// with a hash-index probe including the varying overflow.
func TestEquiJoinProbeDirect(t *testing.T) {
	st := testStore(t, 31)
	emp, _ := st.Get("EMP")
	ref, _ := st.Get("REF")
	ix := NewAttrIndex(ref, "RNAME")
	fast, err := core.EquiJoinProbe(emp, ref, "NAME", "RNAME", func(t1 *core.Tuple) []*core.Tuple {
		f := t1.Value("NAME")
		if f.IsNowhereDefined() || !f.IsConstant() {
			return ref.Tuples() // cannot prune; check everything
		}
		v, _ := f.ConstantValue()
		return append(append([]*core.Tuple(nil), ix.Probe(v)...), ix.Varying()...)
	})
	if err != nil {
		t.Fatalf("EquiJoinProbe: %v", err)
	}
	naive, err := core.EquiJoin(emp, ref, "NAME", "RNAME")
	if err != nil {
		t.Fatalf("EquiJoin: %v", err)
	}
	if !fast.Equal(naive) || fast.String() != naive.String() {
		t.Fatalf("probe join differs from naive:\n%s\nvs\n%s", fast, naive)
	}
}

// TestIndexedFastPathsDirect exercises the core *Over entry points with
// index-derived candidate sets against the naive operators.
func TestIndexedFastPathsDirect(t *testing.T) {
	r := workload.Personnel(workload.DefaultPersonnel())
	L := lifespan.MustParse("{[30,55],[90,120]}")
	ix := NewIntervalIndex(r)

	fast, err := core.TimesliceStaticOver(r, L, ix.Overlapping(L))
	if err != nil {
		t.Fatalf("TimesliceStaticOver: %v", err)
	}
	naive, err := core.TimesliceStatic(r, L)
	if err != nil {
		t.Fatalf("TimesliceStatic: %v", err)
	}
	if !fast.Equal(naive) || fast.String() != naive.String() {
		t.Fatalf("indexed time-slice differs from naive:\n%s\nvs\n%s", fast, naive)
	}
}
