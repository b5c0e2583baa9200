// Fixture for the sessionapi analyzer: commands must run queries
// through an engine.Session, not hql's naive evaluator. The fixture is
// type-checked, never executed.
package sessionapi

import (
	"context"

	"repro/internal/engine"
	"repro/internal/hql"
	"repro/internal/storage"
)

func bypasses(st *storage.Store) {
	if e, err := hql.Parse("EMP"); err == nil {
		hql.EvalNaive(e, st)                              // want `hql\.EvalNaive bypasses the Session API`
		hql.EvalNaiveContext(context.Background(), e, st) // want `hql\.EvalNaiveContext bypasses the Session API`
	}
}

func throughSession(st *storage.Store) {
	db := engine.OpenDB(st)
	sess := db.NewSession()
	ctx := context.Background()
	sess.Query(ctx, "EMP")
	sess.Explain("EMP")
	sess.ExplainAnalyze(ctx, "EMP")
	if e, err := hql.Parse("EMP"); err == nil {
		sess.Eval(ctx, e)
	}
}

func annotatedBaseline(st *storage.Store) {
	e, err := hql.Parse("EMP")
	if err != nil {
		return
	}
	//lint:allow sessionapi fixture exercises the naive-baseline escape hatch
	hql.EvalNaive(e, st)
}
