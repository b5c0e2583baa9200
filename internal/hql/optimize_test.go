package hql

import (
	"strings"
	"testing"
)

func TestOptimizeSelectPushdown(t *testing.T) {
	e, err := Parse(`SELECT WHEN SAL = 30000 FROM (EMP UNIONMERGE EMP)`)
	if err != nil {
		t.Fatal(err)
	}
	opt, n := Optimize(e)
	if n == 0 {
		t.Fatal("pushdown not applied")
	}
	s := opt.String()
	// The select must now sit under UNIONMERGE on both sides.
	if !strings.HasPrefix(s, "(SELECT") || strings.Count(s, "SELECT") != 2 {
		t.Errorf("optimized plan = %s", s)
	}
}

func TestOptimizeSliceComposition(t *testing.T) {
	e, err := Parse(`TIMESLICE (TIMESLICE EMP AT {[0,9]}) AT {[5,19]}`)
	if err != nil {
		t.Fatal(err)
	}
	opt, n := Optimize(e)
	if n != 1 {
		t.Fatalf("expected 1 rewrite, got %d", n)
	}
	if got := opt.String(); got != "TIMESLICE EMP AT {[5,9]}" {
		t.Errorf("optimized plan = %s", got)
	}
}

func TestOptimizeSliceBeforeSelect(t *testing.T) {
	e, err := Parse(`TIMESLICE (SELECT WHEN SAL = 30000 FROM EMP) AT {[0,4]}`)
	if err != nil {
		t.Fatal(err)
	}
	opt, n := Optimize(e)
	if n != 1 {
		t.Fatalf("expected 1 rewrite, got %d", n)
	}
	if got := opt.String(); got != "SELECT WHEN SAL = 30000 FROM TIMESLICE EMP AT {[0,4]}" {
		t.Errorf("optimized plan = %s", got)
	}
	// σ-IF must NOT be reordered.
	e2, err := Parse(`TIMESLICE (SELECT IF SAL = 30000 EXISTS FROM EMP) AT {[0,4]}`)
	if err != nil {
		t.Fatal(err)
	}
	_, n2 := Optimize(e2)
	if n2 != 0 {
		t.Error("σ-IF/slice reorder is unsound and must not fire")
	}
}

func TestOptimizeProjectionPushdown(t *testing.T) {
	e, err := Parse(`PROJECT NAME, SAL FROM (TIMESLICE EMP AT {[0,9]})`)
	if err != nil {
		t.Fatal(err)
	}
	opt, n := Optimize(e)
	if n != 1 {
		t.Fatalf("expected 1 rewrite, got %d", n)
	}
	if got := opt.String(); got != "TIMESLICE PROJECT NAME, SAL FROM EMP AT {[0,9]}" {
		t.Errorf("optimized plan = %s", got)
	}
}

func TestOptimizePreservesResults(t *testing.T) {
	// Every law-rewritten query must return exactly the un-rewritten
	// query's result.
	env := testEnv(t)
	queries := []string{
		`SELECT WHEN SAL = 30000 FROM ((TIMESLICE EMP AT {[0,8]}) UNIONMERGE (TIMESLICE EMP AT {[6,19]}))`,
		`TIMESLICE (TIMESLICE EMP AT {[0,9]}) AT {[5,19]}`,
		`TIMESLICE (SELECT WHEN SAL >= 30000 FROM EMP) AT {[0,6]}`,
		`PROJECT NAME, SAL FROM (TIMESLICE EMP AT {[0,9]})`,
		`SELECT WHEN SAL = 30000 AND DEPT = "Toys" FROM ((TIMESLICE EMP AT {[0,8]}) INTERSECTMERGE (TIMESLICE EMP AT {[2,19]}))`,
		`WHEN (TIMESLICE (SELECT WHEN SAL = 40000 FROM EMP) AT {[0,10]})`,
	}
	for _, q := range queries {
		plain, err := run(q, env)
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		e, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		e, _ = Optimize(e)
		opt, err := EvalNaive(e, env)
		if err != nil {
			t.Fatalf("optimized query %q: %v", q, err)
		}
		switch {
		case plain.Relation != nil:
			if opt.Relation == nil || !plain.Relation.Equal(opt.Relation) {
				t.Errorf("query %q: optimization changed the result:\n%s\nvs\n%s", q, plain, opt)
			}
		case plain.Lifespan != nil:
			if opt.Lifespan == nil || !plain.Lifespan.Equal(*opt.Lifespan) {
				t.Errorf("query %q: optimization changed the lifespan: %s vs %s", q, plain, opt)
			}
		}
	}
}

func TestOptimizeNoOpOnSimpleQueries(t *testing.T) {
	for _, q := range []string{
		`EMP`,
		`SELECT WHEN SAL = 30000 FROM EMP`,
		`EMP JOIN DEPTREL ON DEPT = DNAME`,
		`TIMESLICE SHIP BY SHIPDATE`,
		`SNAPSHOT EMP AT 7`,
	} {
		e, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, n := Optimize(e); n != 0 {
			t.Errorf("query %q: unexpected rewrites (%d)", q, n)
		}
	}
}
