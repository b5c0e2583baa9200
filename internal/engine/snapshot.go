package engine

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/hrdmerr"
)

// Snapshot is the consistent database state one query executes
// against: the epoch and one pinned version of every relation the
// plan depends on. It is captured by core.Pin under the global
// publish lock — a short exclusive section — after which execution
// reads the pinned tuple slices with zero locks: appends by
// concurrent writers never touch a pinned prefix and merges
// copy-on-write, so multi-relation plans (joins, set operators)
// cannot observe relation A before a writer's batch and relation B
// after it.
//
// A nil *Snapshot is valid everywhere and means "read live state". The
// only remaining nil-snapshot execution is plan-time sub-query
// evaluation (WHEN sub-queries in lifespan positions), whose results
// become plan-time constants fenced by the plan's (relation, version)
// deps; every query-time execution runs through a verified pin.
type Snapshot struct {
	Epoch uint64
	vers  map[*core.Relation]core.RelVersion
	// deps echoes the plan's dependency list (sorted by name) for
	// rendering; EXPLAIN prints it after the plan.
	deps []planDep
	// prof, when non-nil, collects per-operator actuals for EXPLAIN
	// ANALYZE; normal execution leaves it nil and pays one nil check
	// per operator.
	prof *profiler
	// ctx, when non-nil, is the query's cancellation context: iterator
	// pulls check it every cancelBatch pulls (see cancelIter) and exec
	// boundaries check it once per operator, so a canceled or
	// deadline-expired query aborts within one iterator batch instead
	// of running its scan to completion. It is nil for uncancellable
	// queries (context.Background callers), which then pay zero checks.
	ctx   context.Context
	pulls int
	// workers is the degree of parallelism the query's parallel
	// operators may use, bound at pin time from the session's DB
	// (DBOptions.Workers). It is execution state, not plan state: plans
	// stay degree-agnostic so DBs with different settings share cached
	// plans. 0/1 means sequential.
	workers int
}

// cancelBatch is the iterator cancellation granularity: the number of
// pulls (summed across the plan's operators) between context checks.
// Small enough that a canceled scan stops within a few hundred tuple
// touches, large enough that the per-pull cost is one increment and a
// mask test.
const cancelBatch = 256

// cancelIter wraps an operator's streaming iterator with the batch-
// boundary cancellation check. The pull counter lives on the snapshot
// — one query, one counter — so stacked operators share the budget and
// the check fires every cancelBatch tuple movements through the whole
// plan, wherever they happen.
func (s *Snapshot) cancelIter(it iterator) iterator {
	if s == nil || s.ctx == nil {
		return it
	}
	return func() (*core.Tuple, error) {
		s.pulls++
		if s.pulls%cancelBatch == 0 {
			if err := s.ctx.Err(); err != nil {
				return nil, hrdmerr.FromContext(err)
			}
		}
		return it()
	}
}

// checkCancel is the exec-boundary check: one ctx read per operator
// materialization, nil when the query is uncancellable.
func (s *Snapshot) checkCancel() error {
	if s == nil || s.ctx == nil {
		return nil
	}
	if err := s.ctx.Err(); err != nil {
		return hrdmerr.FromContext(err)
	}
	return nil
}

// pinPlan captures a snapshot of p's dependency relations and reports
// whether every pinned version matches the version the plan was
// compiled against. A false report means a writer published between
// planning (or the cache's validity fence) and the pin, so the
// plan-time constants — index candidate sets, WHEN sub-query
// lifespans — may not describe the pinned state; the caller replans.
// workers is the degree the snapshot's parallel operators run with.
func pinPlan(ctx context.Context, p *Plan, workers int) (*Snapshot, bool) {
	rels := make([]*core.Relation, len(p.deps))
	for i, d := range p.deps {
		rels[i] = d.rel
	}
	epoch, vers := core.Pin(rels...)
	s, ok := newSnapshot(p, epoch, vers)
	s.attachCtx(ctx)
	s.workers = workers
	return s, ok
}

// attachCtx arms the snapshot's cancellation checks. A context that
// can never be canceled (Background and friends report a nil Done
// channel) is dropped, so uncancellable queries keep the zero-check
// fast path.
func (s *Snapshot) attachCtx(ctx context.Context) {
	if ctx != nil && ctx.Done() != nil {
		s.ctx = ctx
	}
}

// pinPlanExclusive compiles a plan while publications are excluded and
// pins its dependencies in the same critical section, so the pin
// cannot lose the race: the fallback when optimistic plan-then-pin
// keeps colliding with a continuous writer. Planning under the
// exclusive lock is deadlock-free because blocked writers hold no
// relation locks (they acquire the publish lock first).
func pinPlanExclusive(ctx context.Context, workers int, compile func() (*Plan, error)) (*Plan, *Snapshot, error) {
	var p *Plan
	epoch, vers, err := core.PinAtomic(func() ([]*core.Relation, error) {
		var cerr error
		p, cerr = compile()
		if cerr != nil {
			return nil, cerr
		}
		rels := make([]*core.Relation, len(p.deps))
		for i, d := range p.deps {
			rels[i] = d.rel
		}
		return rels, nil
	})
	if err != nil {
		return nil, nil, err
	}
	snap, ok := newSnapshot(p, epoch, vers)
	if !ok {
		// Cannot happen: versions were read and pinned under one lock.
		return nil, nil, fmt.Errorf("engine: snapshot raced planning under the publish lock")
	}
	snap.attachCtx(ctx)
	snap.workers = workers
	return p, snap, nil
}

func newSnapshot(p *Plan, epoch uint64, vers []core.RelVersion) (*Snapshot, bool) {
	s := &Snapshot{Epoch: epoch, vers: make(map[*core.Relation]core.RelVersion, len(vers)), deps: p.deps}
	ok := true
	for i, d := range p.deps {
		s.vers[d.rel] = vers[i]
		if vers[i].Version() != d.version {
			ok = false
		}
	}
	return s, ok
}

// String renders the pinned state for EXPLAIN: the epoch and each
// dependency at its pinned version.
func (s *Snapshot) String() string {
	if s == nil {
		return "none (live reads)"
	}
	parts := make([]string, 0, len(s.deps))
	for _, d := range s.deps {
		parts = append(parts, fmt.Sprintf("%s@%d", d.name, s.vers[d.rel].Version()))
	}
	return fmt.Sprintf("epoch %d (%s)", s.Epoch, strings.Join(parts, ", "))
}

// describePin renders the snapshot a run of p would pin — the same
// line Snapshot.String produces — without actually pinning: EXPLAIN
// only displays the state, and a real Pin would set the shared flag on
// every dependency, taxing the next merge with a copy-on-write of the
// whole tuple slice for a snapshot nobody holds. The reads are not a
// consistent cut, which display does not need.
func describePin(p *Plan) string {
	parts := make([]string, 0, len(p.deps))
	for _, d := range p.deps {
		parts = append(parts, fmt.Sprintf("%s@%d", d.name, d.rel.Version()))
	}
	return fmt.Sprintf("epoch %d (%s)", core.Epoch(), strings.Join(parts, ", "))
}

// tuplesOf returns the pinned tuple slice of r, or its live snapshot
// when r is not part of the pin (or s is nil).
func (s *Snapshot) tuplesOf(r *core.Relation) []*core.Tuple {
	if s != nil {
		if v, ok := s.vers[r]; ok {
			return v.Tuples()
		}
	}
	//lint:allow pindiscipline documented live fallback for relations outside the pin (nil snapshot = unpinned execution)
	return r.Tuples()
}

// relOf returns the relation a naive operator should consume: a frozen
// O(1) view of the pinned version, or the live relation when unpinned.
func (s *Snapshot) relOf(r *core.Relation) *core.Relation {
	if s != nil {
		if v, ok := s.vers[r]; ok {
			return v.View()
		}
	}
	return r
}

// lookupKey probes r's canonical key map bounded by the pinned
// version — the snapshot-aware form of Relation.Lookup the key-index
// join probe uses at execution time.
func (s *Snapshot) lookupKey(r *core.Relation, key string) (*core.Tuple, bool) {
	if s != nil {
		if v, ok := s.vers[r]; ok {
			return v.Lookup(key)
		}
	}
	//lint:allow pindiscipline documented live fallback for relations outside the pin (nil snapshot = unpinned execution)
	return r.Lookup(key)
}

// resolve maps candidates probed from r's live index structures at
// execution time back to the pinned version: newer tuples drop out,
// merged successors map to their pinned forms. Live probes return a
// superset of the pinned matches (images only grow under merges), and
// the full join/selection predicate still runs per candidate, so the
// mapping is exact, never lossy.
func (s *Snapshot) resolve(r *core.Relation, cand []*core.Tuple) []*core.Tuple {
	if s == nil {
		return cand
	}
	v, ok := s.vers[r]
	if !ok {
		return cand
	}
	out := make([]*core.Tuple, 0, len(cand))
	for _, t := range cand {
		if pt, ok := v.Resolve(t); ok {
			out = append(out, pt)
		}
	}
	return out
}
