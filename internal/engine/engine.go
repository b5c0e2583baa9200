package engine

import (
	"cmp"
	"context"
	"fmt"

	"repro/internal/hql"
	"repro/internal/hrdmerr"
	"repro/internal/obs"
	"repro/internal/storage"
)

// init installs the storage layer's index builder: any program that
// imports this package gets stores that rebuild their indexes on load.
func init() {
	storage.IndexBuilder = BuildIndexes
}

// pinRetries bounds the optimistic plan-then-pin loop: each attempt
// compiles (or fetches) a plan and pins a snapshot of its
// dependencies; a writer publishing between the two forces a retry.
// After the budget is spent, the engine compiles and pins under the
// publish lock in one critical section, which cannot lose the race —
// so a query never livelocks behind a continuous writer.
const pinRetries = 3

// runQuery parses, plans and executes a query through the engine,
// falling back to the naive evaluator when the expression cannot be
// planned; it is Session.Query. With optimize set, the Section 5
// law-based rewriter runs between parse and plan, and the rewritten
// expression goes through planAndRun exactly as evalExpr's does: only
// its canonical form is cached, never the source text. Otherwise a
// plan cached under the query's normalized text short-circuits before
// the parser runs. Execution is snapshot-isolated: the plan runs
// against a pinned database state matching its compile-time relation
// versions, however many relations it touches, with workers as the
// degree of its parallel operators.
//
// Every path through runQuery carries an obs.Span and lands in
// finishQuery, so engine.queries / engine.query_total_ns count every
// query and the slow log sees every outlier. The cached fast path pays
// exactly three clock reads (span start, pin mark, execute mark) plus
// finishQuery's atomics — measured against BenchmarkRunCachedKeyEq to
// stay inside the ~3% overhead budget.
//
// Cancellation and deadlines abort execution with a typed hrdmerr
// error (ErrCanceled / ErrDeadline) within one iterator batch
// (cancelBatch pulls) instead of running the scan to completion. A
// Background (uncancellable) context pays zero per-tuple checks,
// keeping the cached fast path inside its overhead budget.
func runQuery(ctx context.Context, src string, env hql.Env, workers int, optimize bool) (hql.Result, error) {
	if err := ctx.Err(); err != nil {
		return hql.Result{}, hrdmerr.FromContext(err)
	}
	sp := obs.Begin()
	srcKey := ""
	if !optimize {
		srcKey = srcCacheKey(src)
		if p, ok := planCache.lookup(srcKey, env, false); ok {
			if snap, pinned := pinPlan(ctx, p, workers); pinned {
				planCache.countHit()
				// One mark covers lookup + pin: splitting them would buy
				// a clock read for a sub-microsecond distinction.
				sp.Mark(obs.StagePin)
				res, err := p.run(snap, &sp)
				finishQuery(&sp, srcKey, p, snap, err)
				return res, err
			}
			// A writer moved a dependency between the fence check and
			// the pin; fall through to the parse path, whose own lookup
			// will drop the stale entry and replan.
			mPinRetries.Inc()
		}
	}
	e, err := hql.Parse(src)
	sp.Mark(obs.StageParse)
	if err != nil {
		finishQuery(&sp, cmp.Or(srcKey, src), nil, nil, err)
		return hql.Result{}, err
	}
	if optimize {
		e, _ = hql.Optimize(e)
	}
	return planAndRun(ctx, e, env, workers, srcKey, &sp)
}

// evalExpr plans and executes a parsed expression, with plan caching,
// snapshot pinning and naive fallback; it is Session.Eval after the
// session's optimizer has run (see runQuery for the cancellation
// contract).
func evalExpr(ctx context.Context, e hql.Expr, env hql.Env, workers int) (hql.Result, error) {
	if err := ctx.Err(); err != nil {
		return hql.Result{}, hrdmerr.FromContext(err)
	}
	sp := obs.Begin()
	return planAndRun(ctx, e, env, workers, "", &sp)
}

// planAndRun is the shared execution path behind runQuery and
// evalExpr: consult the plan cache under the expression's canonical
// rendering, else compile and cache — then pin a snapshot of the plan's
// dependencies and execute only when the pinned versions match the
// versions the plan was compiled against, so plan-time constants
// (index candidate sets, WHEN sub-query lifespans) describe exactly
// the state the query reads. Lost races against writers retry, then
// resolve under the publish lock. srcKey, when non-empty, is
// additionally registered as an alias so the raw query text hits
// before its next parse. An expression the planner cannot compile runs
// on the naive evaluator instead. Either way planAndRun finishes the
// span (metrics + slow log).
func planAndRun(ctx context.Context, e hql.Expr, env hql.Env, workers int, srcKey string, sp *obs.Span) (hql.Result, error) {
	key := astCacheKey(e)
	for try := 0; try < pinRetries; try++ {
		if p, ok := planCache.lookup(key, env, try == 0); ok {
			sp.Mark(obs.StagePlan)
			if snap, pinned := pinPlan(ctx, p, workers); pinned {
				sp.Mark(obs.StagePin)
				planCache.addKey(p, srcKey)
				res, err := p.run(snap, sp)
				finishQuery(sp, key, p, snap, err)
				return res, err
			}
			sp.Mark(obs.StagePin)
			mPinRetries.Inc()
			continue // dep moved between fence and pin: next lookup drops it
		}
		p, err := PlanQuery(e, env)
		sp.Mark(obs.StagePlan)
		if err != nil {
			return runNaive(ctx, e, env, srcKey, sp)
		}
		if snap, pinned := pinPlan(ctx, p, workers); pinned {
			sp.Mark(obs.StagePin)
			planCache.store([]string{srcKey, key}, p)
			res, err := p.run(snap, sp)
			finishQuery(sp, key, p, snap, err)
			return res, err
		}
		sp.Mark(obs.StagePin)
		mPinRetries.Inc()
	}
	// A continuous writer kept publishing between plan and pin; compile
	// and pin in one critical section, which cannot fail.
	mPinExclusive.Inc()
	p, snap, err := pinPlanExclusive(ctx, workers, func() (*Plan, error) { return PlanQuery(e, env) })
	sp.Mark(obs.StagePin)
	if err != nil {
		return runNaive(ctx, e, env, srcKey, sp)
	}
	planCache.store([]string{srcKey, key}, p)
	res, err := p.run(snap, sp)
	finishQuery(sp, key, p, snap, err)
	return res, err
}

// runNaive is the fallback for an expression the planner cannot
// compile: the naive evaluator either runs it or reports the definitive
// semantic error. The span still lands in finishQuery, so naive
// queries are counted and slow-logged like planned ones — under the
// source text when the query came in as text.
func runNaive(ctx context.Context, e hql.Expr, env hql.Env, srcKey string, sp *obs.Span) (hql.Result, error) {
	mNaiveFallback.Inc()
	res, err := hql.EvalNaiveContext(ctx, e, env)
	sp.Mark(obs.StageExecute)
	if srcKey == "" {
		srcKey = astCacheKey(e)
	}
	finishQuery(sp, srcKey, nil, nil, err)
	return res, err
}

// explainQuery parses and plans a query and renders the chosen physical
// plan without executing the plan itself. Planning is not free of
// evaluation: lifespan parameters — literal or WHEN sub-queries in AT
// and DURING positions — are plan-time constants the planner must
// resolve to price its index probes, so a WHEN sub-query does run
// during EXPLAIN. When optimize is set, the Section 5 law-based
// rewriter runs first, so the output shows the plan of the rewritten
// expression — the same one Session.Query would execute. The output
// ends with the statistics the planner consulted, the snapshot a run
// of the plan would pin — the database epoch plus each dependency at
// its pinned version — and the query's plan-cache status (EXPLAIN
// itself neither reads from nor populates the cache).
func explainQuery(src string, env hql.Env, optimize bool) (string, error) {
	e, err := hql.Parse(src)
	if err != nil {
		return "", err
	}
	if optimize {
		e, _ = hql.Optimize(e)
	}
	p, err := PlanQuery(e, env)
	if err != nil {
		return "", err
	}
	status := "miss (first run compiles and caches the plan)"
	if planCache.peek(astCacheKey(e), env) || planCache.peek(srcCacheKey(src), env) {
		status = "hit (repeated runs skip parse and plan)"
	}
	hits, misses, entries := PlanCacheStats()
	return fmt.Sprintf("query: %s\n%s\nsnapshot: %s\nplan-cache: %s [%d hits / %d misses, %d cached]",
		e.String(), p.Explain(), describePin(p), status, hits, misses, entries), nil
}
