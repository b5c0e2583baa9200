package engine

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// durRe masks wall-clock durations in EXPLAIN ANALYZE output: every
// decimal number immediately suffixed by a Go duration unit becomes
// <T>, so the golden files lock rows, lookups, tree shape and line
// format while letting timings vary run to run. Plain counts (rows=1,
// 40 tuples, {[100,139]}) carry no unit suffix and survive untouched.
var durRe = regexp.MustCompile(`\d+(\.\d+)?(ns|µs|ms|s)`)

// TestExplainAnalyzeGolden locks the annotated-tree rendering — per
// operator (actual: rows/time/self[/lookups]) trailers, the stage
// line, result summary and pinned snapshot — for representative plans,
// with volatile timings and the epoch masked. The line-by-line format
// is documented in docs/EXPLAIN.md; update it with any intentional
// change here. Regenerate with:
//
//	go test ./internal/engine -run TestExplainAnalyzeGolden -update
func TestExplainAnalyzeGolden(t *testing.T) {
	st := goldenStore(t)
	cases := []struct {
		name, query string
	}{
		{"analyze_key_eq", `SELECT WHEN NAME = 'aaemp' FROM EMP`},
		{"analyze_attr_index_select", `SELECT WHEN DEPT = 'Toys' FROM EMP`},
		{"analyze_index_time_slice", `TIMESLICE EMP AT {[100,139]}`},
		{"analyze_equijoin_key_probe", `REF JOIN EMP ON RNAME = NAME`},
		{"analyze_when_materialize", `WHEN (SELECT WHEN SAL = 30000 FROM EMP)`},
	}
	sess := OpenDB(st).NewSession()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := sess.ExplainAnalyze(context.Background(), c.query)
			if err != nil {
				t.Fatal(err)
			}
			got := epochRe.ReplaceAllString(out, "epoch <E>")
			got = durRe.ReplaceAllString(got, "<T>") + "\n"
			path := filepath.Join("testdata", "explain", c.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/engine -run TestExplainAnalyzeGolden -update` to create)", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN ANALYZE drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestAnalyzeAccounting asserts the numbers behind the rendering on an
// indexed equality select and an index join: per-operator self times
// sum to the root's wall time, the root's wall time accounts for the
// execute stage within tolerance, and actual row counts equal the
// result's cardinality.
func TestAnalyzeAccounting(t *testing.T) {
	st := goldenStore(t)
	for _, q := range []string{
		`SELECT WHEN DEPT = 'Toys' FROM EMP`,
		`REF JOIN EMP ON RNAME = NAME`,
	} {
		a, err := analyzeQuery(context.Background(), q, st, false, testWorkers)
		if err != nil {
			t.Fatal(err)
		}
		root := a.rootStats()
		if root == nil {
			t.Fatalf("%s: root operator has no stats", q)
		}
		if a.res.Relation == nil || int64(a.res.Relation.Cardinality()) != root.rows {
			t.Fatalf("%s: root rows=%d, result cardinality=%v", q, root.rows, a.res.Relation)
		}
		var selfSum time.Duration
		var walk func(n node)
		var walked []node
		walk = func(n node) {
			selfSum += a.selfTime(n)
			walked = append(walked, n)
			for _, k := range n.children() {
				walk(k)
			}
		}
		walk(a.plan.root)
		// Self times partition the root's wall exactly (modulo the
		// clamp at zero, which only rounds up).
		if selfSum < root.wall || selfSum > root.wall+root.wall/10+time.Millisecond {
			t.Fatalf("%s: Σ self=%v vs root wall=%v", q, selfSum, root.wall)
		}
		// The root's wall accounts for the execute stage: the stage adds
		// only the profExec/span bookkeeping around the tree.
		exec := a.sp.StageDur(obs.StageExecute)
		if root.wall > exec {
			t.Fatalf("%s: root wall %v exceeds execute stage %v", q, root.wall, exec)
		}
		if slack := exec - root.wall; slack > exec/10+50*time.Microsecond {
			t.Fatalf("%s: execute stage %v vs root wall %v — unaccounted %v", q, exec, root.wall, slack)
		}
		// Every operator in the tree must have been measured.
		for _, n := range walked {
			if a.prof.ops[n] == nil {
				t.Fatalf("%s: operator %s not profiled", q, n.describe())
			}
		}
	}
}

// TestAnalyzeJoinLookups pins the join probe accounting: streaming the
// two REF tuples against EMP's key map is exactly two lookups.
func TestAnalyzeJoinLookups(t *testing.T) {
	st := goldenStore(t)
	a, err := analyzeQuery(context.Background(), `REF JOIN EMP ON RNAME = NAME`, st, false, testWorkers)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.rootStats().lookups.Load(); got != 2 {
		t.Fatalf("join lookups = %d, want 2", got)
	}
	if !strings.Contains(a.render(), "lookups=2") {
		t.Fatal("rendering does not surface the lookup count")
	}
}
