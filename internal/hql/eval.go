package hql

import (
	"context"
	"fmt"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/hrdmerr"
	"repro/internal/lifespan"
	"repro/internal/rel"
	"repro/internal/value"
)

// chTime converts a parsed integer to a chronon.
func chTime(n int64) chronon.Time { return chronon.Time(n) }

// Env resolves relation names to historical relations.
type Env interface {
	Get(name string) (*core.Relation, bool)
}

// Result is the value of a query: exactly one field is set, mirroring the
// multi-sorted language of Section 4.5 (relations and lifespans; plus
// classical relations for SNAPSHOT).
type Result struct {
	Relation *core.Relation
	Lifespan *lifespan.Lifespan
	Snapshot *rel.Relation
}

// String renders whichever sort the result carries.
func (r Result) String() string {
	switch {
	case r.Relation != nil:
		return r.Relation.String()
	case r.Lifespan != nil:
		return r.Lifespan.String()
	case r.Snapshot != nil:
		return r.Snapshot.String()
	}
	return "<empty result>"
}

// EvalNaive evaluates a parsed expression with the direct tree-walking
// evaluator — every operator a linear scan, exactly the paper's
// definitional semantics. It is the reference implementation the
// planner's indexed plans are property-tested against.
//
// Like the engine's physical plans, naive evaluation is
// snapshot-isolated: every base relation the expression references is
// pinned in one core.Pin cut before the walk starts, and the operators
// consume frozen views of the pinned versions. A multi-relation query
// racing a writer therefore reads one consistent database state on the
// naive path exactly as it does on the planned path.
func EvalNaive(e Expr, env Env) (Result, error) {
	return EvalNaiveContext(context.Background(), e, env)
}

// EvalNaiveContext is EvalNaive under a context: the walk checks for
// cancellation at every operator node, so a canceled or deadline-
// expired query aborts between operators with a typed error. Errors
// leaving the naive evaluator are classified — semantic failures
// (unknown relation, sort mismatch) match hrdmerr.ErrSemantic,
// cancellation matches ErrCanceled/ErrDeadline.
func EvalNaiveContext(ctx context.Context, e Expr, env Env) (Result, error) {
	env, err := pinExprEnv(e, env)
	if err != nil {
		return Result{}, hrdmerr.Wrap(hrdmerr.CodeSemantic, err)
	}
	res, err := evalNaivePinned(ctx, e, env)
	return res, hrdmerr.Wrap(hrdmerr.CodeSemantic, err)
}

// evalNaivePinned is the tree walk itself, over an environment whose
// relations are already one consistent cut.
func evalNaivePinned(ctx context.Context, e Expr, env Env) (Result, error) {
	switch n := e.(type) {
	case *WhenExpr:
		r, err := evalRel(ctx, n.Source, env)
		if err != nil {
			return Result{}, err
		}
		ls := core.When(r)
		return Result{Lifespan: &ls}, nil
	case *SnapshotExpr:
		r, err := evalRel(ctx, n.Source, env)
		if err != nil {
			return Result{}, err
		}
		snap, err := core.Snapshot(r, chronon.Time(n.At))
		if err != nil {
			return Result{}, err
		}
		return Result{Snapshot: snap}, nil
	default:
		r, err := evalRel(ctx, e, env)
		if err != nil {
			return Result{}, err
		}
		return Result{Relation: r}, nil
	}
}

// evalRel evaluates a relation-valued expression. The cancellation
// check at entry runs once per operator node: each operator is a full
// scan in the naive evaluator, so per-node is the natural abort
// granularity here (the engine's plans abort finer, at iterator batch
// boundaries).
func evalRel(ctx context.Context, e Expr, env Env) (*core.Relation, error) {
	if err := ctx.Err(); err != nil {
		return nil, hrdmerr.FromContext(err)
	}
	switch n := e.(type) {
	case *RelName:
		r, ok := env.Get(n.Name)
		if !ok {
			return nil, fmt.Errorf("hql: unknown relation %q", n.Name)
		}
		return r, nil
	case *SelectExpr:
		src, err := evalRel(ctx, n.Source, env)
		if err != nil {
			return nil, err
		}
		L := lifespan.All()
		if n.During != nil {
			L, err = evalLS(ctx, n.During, env)
			if err != nil {
				return nil, err
			}
		}
		cond, err := buildCond(n.Cond)
		if err != nil {
			return nil, err
		}
		if n.When {
			return core.SelectWhenCond(src, cond, L)
		}
		q := core.Exists
		if n.ForAll {
			q = core.ForAll
		}
		return core.SelectIfCond(src, cond, q, L)
	case *ProjectExpr:
		src, err := evalRel(ctx, n.Source, env)
		if err != nil {
			return nil, err
		}
		return core.Project(src, n.Attrs...)
	case *TimesliceExpr:
		src, err := evalRel(ctx, n.Source, env)
		if err != nil {
			return nil, err
		}
		if n.By != "" {
			return core.TimesliceDynamic(src, n.By)
		}
		L, err := evalLS(ctx, n.At, env)
		if err != nil {
			return nil, err
		}
		return core.TimesliceStatic(src, L)
	case *RenameExpr:
		src, err := evalRel(ctx, n.Source, env)
		if err != nil {
			return nil, err
		}
		return src.Rename(n.Prefix)
	case *MaterializeExpr:
		src, err := evalRel(ctx, n.Source, env)
		if err != nil {
			return nil, err
		}
		return core.Materialize(src)
	case *BinaryExpr:
		left, err := evalRel(ctx, n.Left, env)
		if err != nil {
			return nil, err
		}
		right, err := evalRel(ctx, n.Right, env)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "UNION":
			return core.Union(left, right)
		case "UNIONMERGE":
			return core.UnionMerge(left, right)
		case "INTERSECT":
			return core.Intersect(left, right)
		case "INTERSECTMERGE":
			return core.IntersectMerge(left, right)
		case "MINUS":
			return core.Diff(left, right)
		case "MINUSMERGE":
			return core.DiffMerge(left, right)
		case "TIMES":
			return core.Product(left, right)
		case "JOIN":
			if n.Theta == value.EQ {
				return core.EquiJoin(left, right, n.AttrA, n.AttrB)
			}
			return core.ThetaJoin(left, right, n.AttrA, n.Theta, n.AttrB)
		case "OUTERJOIN":
			return core.ThetaJoinOuter(left, right, n.AttrA, n.Theta, n.AttrB)
		case "NATJOIN":
			return core.NaturalJoin(left, right)
		case "TIMEJOIN":
			return core.TimeJoin(left, right, n.AttrA)
		}
		return nil, fmt.Errorf("hql: unknown operator %s", n.Op)
	case *WhenExpr, *SnapshotExpr:
		return nil, fmt.Errorf("hql: %s is not relation-valued here", e)
	}
	return nil, fmt.Errorf("hql: unhandled expression %T", e)
}

// BuildCond converts a parsed condition tree to the algebra's
// Condition; the planner lowers SELECT nodes through it.
func BuildCond(c CondExpr) (core.Condition, error) { return buildCond(c) }

// buildCond converts a parsed condition tree to the algebra's Condition.
func buildCond(c CondExpr) (core.Condition, error) {
	if c.Pred != nil {
		return core.Atom{Pred: core.Predicate{Attr: c.Pred.Attr, Theta: c.Pred.Theta,
			Const: c.Pred.Const, OtherAttr: c.Pred.OtherAttr}}, nil
	}
	kids := make([]core.Condition, len(c.Kids))
	for i, k := range c.Kids {
		kc, err := buildCond(k)
		if err != nil {
			return nil, err
		}
		kids[i] = kc
	}
	switch c.Op {
	case "AND":
		return core.And{Kids: kids}, nil
	case "OR":
		return core.Or{Kids: kids}, nil
	case "NOT":
		return core.Not{Kid: kids[0]}, nil
	}
	return nil, fmt.Errorf("hql: malformed condition %s", c)
}

// evalLS evaluates a lifespan-valued expression.
func evalLS(ctx context.Context, e *LSExpr, env Env) (lifespan.Lifespan, error) {
	switch {
	case e.Literal != "":
		return lifespan.Parse(e.Literal)
	case e.When != nil:
		r, err := evalRel(ctx, e.When, env)
		if err != nil {
			return lifespan.Lifespan{}, err
		}
		return core.When(r), nil
	default:
		l, err := evalLS(ctx, e.Left, env)
		if err != nil {
			return lifespan.Lifespan{}, err
		}
		r, err := evalLS(ctx, e.Right, env)
		if err != nil {
			return lifespan.Lifespan{}, err
		}
		switch e.Op {
		case "UNION":
			return l.Union(r), nil
		case "INTERSECT":
			return l.Intersect(r), nil
		case "MINUS":
			return l.Minus(r), nil
		}
		return lifespan.Lifespan{}, fmt.Errorf("hql: unknown lifespan operator %s", e.Op)
	}
}
