package engine

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/hql"
	"repro/internal/obs"
)

// EXPLAIN ANALYZE: execute the query with a per-operator profiler
// attached to its snapshot and render the plan tree annotated with
// actuals — rows produced, wall time, self time (wall minus children),
// index lookups — followed by the lifecycle stage breakdown, the
// result summary and the pinned snapshot. Unlike plain EXPLAIN, the
// query genuinely runs (and its side effects on the registry — query
// counts, histograms, slow-log entries — are real); like EXPLAIN, the
// plan cache is neither consulted nor populated, so the rendered tree
// always reflects a fresh compilation of the submitted text.

// analysis is one executed, profiled query — the data behind the
// rendered EXPLAIN ANALYZE output, kept separate so tests can assert
// on the numbers without parsing text.
type analysis struct {
	plan *Plan
	prof *profiler
	sp   obs.Span
	snap *Snapshot
	res  hql.Result
}

// analyzeQuery is the execution half of Session.ExplainAnalyze; when
// optimize is set the Section 5 rewriter runs first, matching what
// Session.Query would execute. It mirrors the engine's plan-then-pin
// discipline — optimistic retries, then the exclusive fallback — so
// the profiled execution is the same snapshot-verified execution
// runQuery performs, honoring cancellation and deadlines the same way.
// Expressions the planner cannot compile surface their planning error:
// there is no naive fallback to attribute per-operator numbers to.
func analyzeQuery(ctx context.Context, src string, env hql.Env, optimize bool, workers int) (*analysis, error) {
	sp := obs.Begin()
	e, err := hql.Parse(src)
	if err != nil {
		finishQuery(&sp, src, nil, nil, err)
		return nil, err
	}
	sp.Mark(obs.StageParse)
	if optimize {
		e, _ = hql.Optimize(e)
	}
	var p *Plan
	var snap *Snapshot
	for try := 0; ; try++ {
		p, err = PlanQuery(e, env)
		sp.Mark(obs.StagePlan)
		if err != nil {
			finishQuery(&sp, src, nil, nil, err)
			return nil, err
		}
		var pinned bool
		if snap, pinned = pinPlan(ctx, p, workers); pinned {
			sp.Mark(obs.StagePin)
			break
		}
		sp.Mark(obs.StagePin)
		mPinRetries.Inc()
		if try+1 >= pinRetries {
			mPinExclusive.Inc()
			p, snap, err = pinPlanExclusive(ctx, workers, func() (*Plan, error) { return PlanQuery(e, env) })
			sp.Mark(obs.StagePin)
			if err != nil {
				finishQuery(&sp, src, nil, nil, err)
				return nil, err
			}
			break
		}
	}
	snap.prof = newProfiler()
	res, err := p.run(snap, &sp)
	finishQuery(&sp, "", p, snap, err)
	if err != nil {
		return nil, err
	}
	return &analysis{plan: p, prof: snap.prof, sp: sp, snap: snap, res: res}, nil
}

// rootStats returns the root operator's measured execution.
func (a *analysis) rootStats() *opStats {
	return a.prof.ops[a.plan.root]
}

// selfTime is wall time minus the children's wall time, clamped at
// zero (clock granularity can make the difference marginally
// negative). Iterator-profiled parents include every child pull in
// their own wall, and exec-profiled parents run their children inside
// their own measurement, so the subtraction is the operator's own
// work in both modes.
func (a *analysis) selfTime(n node) time.Duration {
	st := a.prof.ops[n]
	if st == nil {
		return 0
	}
	self := st.wall
	for _, k := range n.children() {
		if ks := a.prof.ops[k]; ks != nil {
			self -= ks.wall
		}
	}
	if self < 0 {
		return 0
	}
	return self
}

// render produces the annotated tree plus the stage, result and
// snapshot trailer lines.
func (a *analysis) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", a.plan.text)
	switch a.plan.kind {
	case planWhen:
		b.WriteString("when (lifespan of result)\n")
	case planSnapshot:
		fmt.Fprintf(&b, "snapshot at %s\n", a.plan.at)
	}
	depth := 0
	if a.plan.kind != planRelation {
		depth = 1
	}
	a.renderNode(a.plan.root, &b, depth)
	b.WriteString("stages:")
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		fmt.Fprintf(&b, " %s=%s", obs.StageName(st), a.sp.StageDur(st))
	}
	fmt.Fprintf(&b, " total=%s\n", a.sp.Total())
	fmt.Fprintf(&b, "result: %s\n", a.resultSummary())
	fmt.Fprintf(&b, "snapshot: %s", a.snap)
	return b.String()
}

func (a *analysis) renderNode(n node, b *strings.Builder, depth int) {
	c := n.estimate()
	fmt.Fprintf(b, "%s%s  [rows≈%.0f cost≈%.0f]", strings.Repeat("  ", depth), n.describe(), c.rows, c.work)
	if st := a.prof.ops[n]; st != nil && !st.untouched() {
		fmt.Fprintf(b, "  (actual: rows=%d time=%s self=%s", st.rows, st.wall, a.selfTime(n))
		if lk := st.lookups.Load(); lk > 0 {
			fmt.Fprintf(b, " lookups=%d", lk)
		}
		if st.par != nil {
			fmt.Fprintf(b, " degree=%d partitions=%d scanned=%d pruned=%d",
				st.par.degree, st.par.parts, st.par.scanned, st.par.pruned)
		}
		b.WriteString(")")
	} else {
		// A node the execution never touched (e.g. pruned to an empty
		// candidate set before its child ran, or the sequential form an
		// executed parallel operator wraps).
		b.WriteString("  (actual: not executed)")
	}
	b.WriteString("\n")
	for _, k := range n.children() {
		a.renderNode(k, b, depth+1)
	}
}

// resultSummary describes whichever sort the result carries, with its
// cardinality where it has one.
func (a *analysis) resultSummary() string {
	switch {
	case a.res.Relation != nil:
		return fmt.Sprintf("relation %s (%d tuples)", a.res.Relation.Scheme().Name, a.res.Relation.Cardinality())
	case a.res.Lifespan != nil:
		return fmt.Sprintf("lifespan %s", a.res.Lifespan)
	case a.res.Snapshot != nil:
		return fmt.Sprintf("snapshot relation %s (%d tuples)", a.res.Snapshot.Scheme().Name, a.res.Snapshot.Cardinality())
	default:
		return "empty"
	}
}
