package hql

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

func ls(s string) lifespan.Lifespan { return lifespan.MustParse(s) }

// testEnv builds the EMP/DEPTREL/SHIP fixture store shared by the tests.
func testEnv(t testing.TB) *storage.Store {
	t.Helper()
	full := ls("{[0,99]}")
	es := schema.MustNew("EMP", []string{"NAME"},
		schema.Attribute{Name: "NAME", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "SAL", Domain: value.Ints, Lifespan: full, Interp: "step"},
		schema.Attribute{Name: "DEPT", Domain: value.Strings, Lifespan: full, Interp: "step"},
	)
	emp := core.NewRelation(es)
	emp.MustInsert(core.NewTupleBuilder(es, ls("{[0,9]}")).
		Key("NAME", value.String_("John")).
		Set("SAL", 0, 4, value.Int(30000)).
		Set("SAL", 5, 9, value.Int(34000)).
		Set("DEPT", 0, 9, value.String_("Toys")).
		MustBuild())
	emp.MustInsert(core.NewTupleBuilder(es, ls("{[3,19]}")).
		Key("NAME", value.String_("Mary")).
		Set("SAL", 3, 19, value.Int(40000)).
		Set("DEPT", 3, 9, value.String_("Shoes")).
		Set("DEPT", 10, 19, value.String_("Books")).
		MustBuild())

	ds := schema.MustNew("DEPTREL", []string{"DNAME"},
		schema.Attribute{Name: "DNAME", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "FLOOR", Domain: value.Ints, Lifespan: full, Interp: "step"},
	)
	dept := core.NewRelation(ds)
	for i, n := range []string{"Toys", "Shoes", "Books"} {
		dept.MustInsert(core.NewTupleBuilder(ds, ls("{[0,19]}")).
			Key("DNAME", value.String_(n)).
			Set("FLOOR", 0, 19, value.Int(int64(i+1))).
			MustBuild())
	}

	ss := schema.MustNew("SHIP", []string{"ID"},
		schema.Attribute{Name: "ID", Domain: value.Ints, Lifespan: full},
		schema.Attribute{Name: "SHIPDATE", Domain: value.Times, Lifespan: full},
	)
	ship := core.NewRelation(ss)
	ship.MustInsert(core.NewTupleBuilder(ss, ls("{[0,19]}")).
		Key("ID", value.Int(1)).
		Set("SHIPDATE", 0, 19, value.TimeVal(7)).
		MustBuild())

	st := storage.NewStore()
	st.Put(emp)
	st.Put(dept)
	st.Put(ship)
	return st
}

// run parses src and evaluates it with the reference evaluator.
func run(src string, env Env) (Result, error) {
	e, err := Parse(src)
	if err != nil {
		return Result{}, err
	}
	return EvalNaive(e, env)
}

func runRel(t *testing.T, env Env, q string) *core.Relation {
	t.Helper()
	res, err := run(q, env)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	if res.Relation == nil {
		t.Fatalf("query %q: expected a relation result, got %s", q, res)
	}
	return res.Relation
}

func TestRelName(t *testing.T) {
	env := testEnv(t)
	r := runRel(t, env, "EMP")
	if r.Cardinality() != 2 {
		t.Errorf("EMP = %d tuples", r.Cardinality())
	}
	if _, err := run("NOPE", env); err == nil || !strings.Contains(err.Error(), "unknown relation") {
		t.Errorf("unknown relation error missing: %v", err)
	}
}

func TestSelectWhenQuery(t *testing.T) {
	env := testEnv(t)
	r := runRel(t, env, `SELECT WHEN SAL = 30000 FROM EMP`)
	if r.Cardinality() != 1 {
		t.Fatalf("got %d tuples", r.Cardinality())
	}
	tp := r.Tuples()[0]
	if !tp.Lifespan().Equal(ls("{[0,4]}")) {
		t.Errorf("lifespan = %v", tp.Lifespan())
	}
	// Composition: the paper's NAME=John ∧ SAL=30K example.
	r2 := runRel(t, env, `SELECT WHEN SAL = 30000 FROM (SELECT WHEN NAME = "John" FROM EMP)`)
	if r2.Cardinality() != 1 || !r2.Tuples()[0].Lifespan().Equal(ls("{[0,4]}")) {
		t.Errorf("composed select-when: %s", r2)
	}
}

func TestSelectIfQuery(t *testing.T) {
	env := testEnv(t)
	// Existential, scoped.
	r := runRel(t, env, `SELECT IF SAL >= 34000 EXISTS DURING {[0,4]} FROM EMP`)
	if r.Cardinality() != 1 {
		t.Fatalf("∃ scoped: %d tuples", r.Cardinality())
	}
	if _, ok := r.Lookup(`"Mary"`); !ok {
		t.Error("Mary must qualify")
	}
	// Universal.
	r2 := runRel(t, env, `SELECT IF SAL >= 34000 FORALL FROM EMP`)
	if r2.Cardinality() != 1 {
		t.Fatalf("∀: %d tuples", r2.Cardinality())
	}
	// Attribute RHS.
	r3 := runRel(t, env, `SELECT WHEN NAME = DEPT FROM EMP`)
	if r3.Cardinality() != 0 {
		t.Error("nobody is named after their department")
	}
}

func TestProjectQuery(t *testing.T) {
	env := testEnv(t)
	r := runRel(t, env, `PROJECT NAME, SAL FROM EMP`)
	if r.Scheme().HasAttr("DEPT") || !r.Scheme().HasAttr("SAL") {
		t.Errorf("projection scheme = %v", r.Scheme().AttrNames())
	}
}

func TestTimesliceQueries(t *testing.T) {
	env := testEnv(t)
	r := runRel(t, env, `TIMESLICE EMP AT {[0,2]}`)
	if r.Cardinality() != 1 { // only John alive
		t.Fatalf("static slice: %d tuples", r.Cardinality())
	}
	// WHEN as lifespan parameter.
	r2 := runRel(t, env, `TIMESLICE EMP AT WHEN (SELECT WHEN SAL = 30000 FROM EMP)`)
	john, ok := r2.Lookup(`"John"`)
	if !ok || !john.Lifespan().Equal(ls("{[0,4]}")) {
		t.Errorf("WHEN-parameterized slice: %s", r2)
	}
	// Lifespan set algebra in the AT clause.
	r3 := runRel(t, env, `TIMESLICE EMP AT {[0,9]} MINUS {[3,9]}`)
	j3, ok := r3.Lookup(`"John"`)
	if !ok || !j3.Lifespan().Equal(ls("{[0,2]}")) {
		t.Errorf("lifespan algebra slice: %s", r3)
	}
	// Dynamic slice.
	r4 := runRel(t, env, `TIMESLICE SHIP BY SHIPDATE`)
	if r4.Cardinality() != 1 || !r4.Tuples()[0].Lifespan().Equal(ls("{7}")) {
		t.Errorf("dynamic slice: %s", r4)
	}
}

func TestWhenQuery(t *testing.T) {
	env := testEnv(t)
	res, err := run(`WHEN (SELECT WHEN SAL = 40000 FROM EMP)`, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lifespan == nil || !res.Lifespan.Equal(ls("{[3,19]}")) {
		t.Errorf("WHEN result = %s", res)
	}
}

func TestJoinQueries(t *testing.T) {
	env := testEnv(t)
	r := runRel(t, env, `EMP JOIN DEPTREL ON DEPT = DNAME`)
	if r.Cardinality() != 3 { // John-Toys, Mary-Shoes, Mary-Books
		t.Fatalf("equijoin: %d tuples\n%s", r.Cardinality(), r)
	}
	r2 := runRel(t, env, `SHIP TIMEJOIN DEPTREL ON SHIPDATE`)
	if r2.Cardinality() != 3 {
		t.Fatalf("timejoin: %d tuples", r2.Cardinality())
	}
	// θ-join with rename (self-join).
	r3 := runRel(t, env, `EMP JOIN (RENAME EMP AS b) ON SAL > b.SAL`)
	if r3.Cardinality() == 0 {
		t.Error("someone out-earns someone")
	}
	// Product.
	r4 := runRel(t, env, `EMP TIMES DEPTREL`)
	if r4.Cardinality() != 6 {
		t.Errorf("product: %d tuples", r4.Cardinality())
	}
}

func TestSetOpQueries(t *testing.T) {
	env := testEnv(t)
	r := runRel(t, env, `(TIMESLICE EMP AT {[0,8]}) UNIONMERGE (TIMESLICE EMP AT {[6,19]})`)
	emp, _ := env.Get("EMP")
	if !r.Equal(emp) {
		t.Error("slices must reassemble via UNIONMERGE")
	}
	r2 := runRel(t, env, `EMP MINUSMERGE (TIMESLICE EMP AT {[0,9]})`)
	mary, ok := r2.Lookup(`"Mary"`)
	if !ok || r2.Cardinality() != 1 || !mary.Lifespan().Equal(ls("{[10,19]}")) {
		t.Errorf("MINUSMERGE: %s", r2)
	}
	r3 := runRel(t, env, `EMP INTERSECTMERGE (TIMESLICE EMP AT {[0,5]})`)
	if r3.Cardinality() != 2 {
		t.Errorf("INTERSECTMERGE: %d tuples", r3.Cardinality())
	}
	r4 := runRel(t, env, `EMP MINUS EMP`)
	if r4.Cardinality() != 0 {
		t.Error("EMP MINUS EMP must be empty")
	}
}

func TestSnapshotQuery(t *testing.T) {
	env := testEnv(t)
	res, err := run(`SNAPSHOT EMP AT 7`, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot == nil || res.Snapshot.Cardinality() != 2 {
		t.Errorf("snapshot = %s", res)
	}
	res2, err := run(`SNAPSHOT EMP AT @50`, env)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Snapshot.Cardinality() != 0 {
		t.Error("snapshot at 50 is empty")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT SAL = 3 FROM EMP",          // missing IF/WHEN
		"SELECT IF SAL 30000 FROM EMP",     // missing comparator
		"SELECT IF SAL = FROM EMP",         // missing RHS
		"PROJECT FROM EMP",                 // no attributes
		"TIMESLICE EMP",                    // missing AT/BY
		"TIMESLICE EMP AT",                 // missing lifespan
		"TIMESLICE EMP AT {[0,",            // unterminated lifespan
		"EMP JOIN DEPTREL",                 // missing ON
		"EMP JOIN DEPTREL ON DEPT",         // missing comparator
		"EMP TIMEJOIN DEPTREL",             // missing ON
		"SNAPSHOT EMP AT x",                // bad time
		"EMP EXTRA",                        // trailing garbage
		"(EMP",                             // unbalanced paren
		`SELECT WHEN NAME = "unterminated`, // bad string
		"RENAME EMP",                       // missing AS
		"WHEN",                             // missing operand
	}
	env := testEnv(t)
	for _, q := range bad {
		if _, err := run(q, env); err == nil {
			t.Errorf("query %q should fail to parse/evaluate", q)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	env := testEnv(t)
	bad := []string{
		`SELECT WHEN NOPE = 3 FROM EMP`,  // unknown attribute
		`EMP UNION DEPTREL`,              // union-incompatible
		`EMP JOIN EMP ON SAL = SAL`,      // shared attributes
		`TIMESLICE EMP BY SAL`,           // not time-valued
		`EMP TIMEJOIN DEPTREL ON ID`,     // attr not in left relation
		`SELECT WHEN SAL < "x" FROM EMP`, // incomparable
		`PROJECT NOPE FROM EMP`,          // unknown projection attr
		`EMP NATJOIN SHIP`,               // no shared attributes
	}
	for _, q := range bad {
		if _, err := run(q, env); err == nil {
			t.Errorf("query %q should fail evaluation", q)
		}
	}
}

func TestASTStringRoundTrip(t *testing.T) {
	// Parsing the String() rendering of a parsed query yields the same
	// String() — a stable pretty-printer.
	queries := []string{
		`SELECT WHEN SAL = 30000 FROM EMP`,
		`SELECT IF SAL >= 30000 FORALL DURING {[0,9]} FROM EMP`,
		`PROJECT NAME, SAL FROM EMP`,
		`TIMESLICE EMP AT {[0,9]}`,
		`TIMESLICE SHIP BY SHIPDATE`,
		`EMP JOIN DEPTREL ON DEPT = DNAME`,
		`EMP NATJOIN EMP`,
		`SHIP TIMEJOIN DEPTREL ON SHIPDATE`,
		`WHEN EMP`,
		`SNAPSHOT EMP AT 7`,
		`RENAME EMP AS b`,
		`EMP UNIONMERGE EMP`,
	}
	for _, q := range queries {
		e1, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		e2, err := Parse(e1.String())
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", e1.String(), q, err)
		}
		if e1.String() != e2.String() {
			t.Errorf("unstable printing: %q -> %q", e1.String(), e2.String())
		}
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	// Keywords are case-insensitive; relation and attribute names are not.
	env := testEnv(t)
	r := runRel(t, env, `select when SAL = 30000 from EMP`)
	if r.Cardinality() != 1 {
		t.Errorf("lower-case keywords: %d tuples", r.Cardinality())
	}
	if _, err := run(`select when sal = 30000 from EMP`, env); err == nil {
		t.Error("attribute names must stay case-sensitive")
	}
}

func TestOuterJoinQuery(t *testing.T) {
	env := testEnv(t)
	outer := runRel(t, env, `EMP OUTERJOIN DEPTREL ON DEPT = DNAME`)
	inner := runRel(t, env, `EMP JOIN DEPTREL ON DEPT = DNAME`)
	if outer.Cardinality() != inner.Cardinality() {
		t.Fatalf("outer %d pairs, inner %d", outer.Cardinality(), inner.Cardinality())
	}
	// Outer join lifespans are unions, so at least as long as inner ones.
	for _, tp := range outer.Tuples() {
		in, ok := inner.Lookup(tp.KeyValue("NAME").String(), tp.KeyValue("DNAME").String())
		if !ok {
			t.Fatal("pair mismatch")
		}
		if !in.Lifespan().SubsetOf(tp.Lifespan()) {
			t.Errorf("outer lifespan %v should cover inner %v", tp.Lifespan(), in.Lifespan())
		}
	}
}

func TestMaterializeQuery(t *testing.T) {
	env := testEnv(t)
	// EMP values are already total step functions, so MATERIALIZE is the
	// identity here; the point is the operator parses and runs.
	m := runRel(t, env, `MATERIALIZE EMP`)
	emp, _ := env.Get("EMP")
	if !m.Equal(emp) {
		t.Error("MATERIALIZE of a total relation must be the identity")
	}
	// And composes.
	r := runRel(t, env, `SELECT WHEN SAL = 30000 FROM MATERIALIZE EMP`)
	if r.Cardinality() != 1 {
		t.Errorf("composed materialize: %d tuples", r.Cardinality())
	}
}

func TestCompoundConditions(t *testing.T) {
	env := testEnv(t)
	// The paper's conjunction as a single query.
	r := runRel(t, env, `SELECT WHEN NAME = "John" AND SAL = 30000 FROM EMP`)
	if r.Cardinality() != 1 || !r.Tuples()[0].Lifespan().Equal(ls("{[0,4]}")) {
		t.Errorf("AND query: %s", r)
	}
	// OR across attributes.
	r2 := runRel(t, env, `SELECT WHEN SAL = 30000 OR DEPT = "Books" FROM EMP`)
	if r2.Cardinality() != 2 {
		t.Errorf("OR query: %d tuples", r2.Cardinality())
	}
	// NOT with precedence: NOT binds tighter than AND, AND tighter than OR.
	r3 := runRel(t, env, `SELECT WHEN NOT SAL = 30000 AND DEPT = "Toys" FROM EMP`)
	john, ok := r3.Lookup(`"John"`)
	if !ok || !john.Lifespan().Equal(ls("{[5,9]}")) {
		t.Errorf("NOT/AND precedence: %s", r3)
	}
	// Parenthesized conditions.
	r4 := runRel(t, env, `SELECT IF (SAL = 30000 OR SAL = 34000) AND DEPT = "Toys" EXISTS FROM EMP`)
	if r4.Cardinality() != 1 {
		t.Errorf("parenthesized condition: %d tuples", r4.Cardinality())
	}
	// ∃ of a joint condition differs from composing two selects: nobody
	// earns 40000 in Toys simultaneously.
	r5 := runRel(t, env, `SELECT IF SAL = 40000 AND DEPT = "Toys" EXISTS FROM EMP`)
	if r5.Cardinality() != 0 {
		t.Errorf("joint ∃ should be empty: %s", r5)
	}
	// Errors inside conditions propagate.
	if _, err := run(`SELECT WHEN NOPE = 3 OR SAL = 1 FROM EMP`, env); err == nil {
		t.Error("unknown attribute in OR must fail")
	}
	if _, err := run(`SELECT WHEN SAL = 30000 AND FROM EMP`, env); err == nil {
		t.Error("dangling AND must fail")
	}
	// Round-trip printing of compound conditions.
	for _, q := range []string{
		`SELECT WHEN NAME = "John" AND SAL = 30000 FROM EMP`,
		`SELECT IF NOT (SAL < 20000) OR DEPT = "Books" FORALL FROM EMP`,
	} {
		e1, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		e2, err := Parse(e1.String())
		if err != nil || e1.String() != e2.String() {
			t.Errorf("unstable printing for %q: %q vs %q, %v", q, e1.String(), e2.String(), err)
		}
	}
}
