package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hrdmerr"
	"repro/internal/lifespan"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/value"
)

// Partitioned parallel execution. A parallelNode wraps one leaf-shaped
// operator — index select, index time-slice, a time-slice or filter
// over a base scan, or an index lookup join streaming a base scan —
// and evaluates it by splitting the operator's input snapshot into
// contiguous range partitions (core.PartitionSlice), running the
// operator's per-tuple kernel over the partitions on a bounded worker
// pool, and concatenating the per-partition result slices in partition
// order. Because partitions are contiguous chunks of the input in
// input order and every kernel is order-preserving within its chunk,
// the concatenation reproduces the sequential operator's output order
// exactly, at any degree of parallelism — the ordered-merge
// determinism the differential harness locks byte-for-byte.
//
// Pin discipline: workers receive only the query's *Snapshot and the
// plan-time candidate slices. Every tuple a worker touches comes from
// a pinned slice (Snapshot.tuplesOf) or a plan-time candidate set
// fenced by the plan's (relation, version) deps, and join probes go
// through the snapshot-bounded accessors (lookupKey, resolve) — so a
// worker can never observe a torn write group, exactly as the
// sequential operators cannot. The pindiscipline analyzer extends into
// worker closures to keep it that way.

// Worker-pool and partition metrics. tasks counts helper executions
// dispatched to the pool; inline counts parallel operator runs that
// executed entirely on the query goroutine (single partition, degree
// clamped to one, or pool saturated); busy_workers is the number of
// goroutines currently running partition work (helpers plus query
// goroutines); partition_rows accumulates rows produced by partition
// kernels; partitions_scanned / partitions_pruned count chunks
// evaluated versus skipped by the lifespan-range prune.
var parMetrics = struct {
	tasks   *obs.Counter
	inline  *obs.Counter
	scanned *obs.Counter
	pruned  *obs.Counter
	rows    *obs.Counter
	busy    *obs.Gauge
}{
	tasks:   obs.Default.Counter("engine.parallel.tasks"),
	inline:  obs.Default.Counter("engine.parallel.inline"),
	scanned: obs.Default.Counter("engine.parallel.partitions_scanned"),
	pruned:  obs.Default.Counter("engine.parallel.partitions_pruned"),
	rows:    obs.Default.Counter("engine.parallel.partition_rows"),
	busy:    obs.Default.Gauge("engine.parallel.busy_workers"),
}

// parallelMinInput gates planning a parallel operator: inputs below it
// (tuples or candidates at plan time) keep the plain sequential node,
// so small stores — unit-test fixtures, golden files, the CI bench
// smoke — plan exactly as before. Variable for tests and tuning via
// SetParallelThreshold.
var parallelMinInput atomic.Int64

const defaultParallelThreshold = 4096

func init() { parallelMinInput.Store(defaultParallelThreshold) }

// SetParallelThreshold sets the minimum input size (tuples or plan-time
// candidates) at which the planner wraps an eligible operator in a
// parallel node, returning the previous threshold. Cached plans keep
// the shape they were compiled with; callers changing the threshold
// mid-process (tests) should ResetPlanCache.
func SetParallelThreshold(n int) int {
	if n < 1 {
		n = 1
	}
	return int(parallelMinInput.Swap(int64(n)))
}

// parallelChunkSize is the partition granularity: half the engage
// threshold, so any input big enough to plan parallel splits into at
// least two chunks. Chunk boundaries depend only on the input length —
// never on the degree — which keeps partition layout (and therefore
// pruning counts and merged output) identical across worker counts.
func parallelChunkSize() int {
	c := int(parallelMinInput.Load()) / 2
	if c < 1 {
		c = 1
	}
	return c
}

// ---------------------------------------------------------------------
// bounded worker pool

// workerPool is the process-wide bounded pool parallel operators draw
// helpers from: GOMAXPROCS goroutines consuming a buffered task
// channel, started lazily on first use. Submission never blocks — a
// full queue falls back to the submitting query goroutine running the
// work itself — so a saturated pool degrades to inline execution
// instead of queueing unboundedly or deadlocking. Helper tasks hold no
// locks and always terminate (a query's partitions are finite), so
// every queued task eventually runs and every wg.Wait returns.
var workerPool struct {
	once  sync.Once
	tasks chan func()
}

func poolStart() {
	size := runtime.GOMAXPROCS(0)
	if size < 1 {
		size = 1
	}
	workerPool.tasks = make(chan func(), size)
	for i := 0; i < size; i++ {
		go func() {
			for f := range workerPool.tasks {
				f()
			}
		}()
	}
}

// poolSubmit enqueues f on the pool, reporting false when the queue is
// full (the caller then runs the work inline).
func poolSubmit(f func()) bool {
	workerPool.once.Do(poolStart)
	select {
	case workerPool.tasks <- f:
		return true
	default:
		return false
	}
}

// ---------------------------------------------------------------------
// cancellation for workers

// workerCancel is a per-worker cancellation checker. Each worker owns
// one — the shared Snapshot.pulls counter is single-goroutine state the
// parallel path must not touch — and checks the query context every
// cancelBatch tuples, matching the sequential iterators' granularity.
type workerCancel struct {
	ctx context.Context
	n   int
}

func (c *workerCancel) check() error {
	if c == nil {
		return nil
	}
	c.n++
	if c.n%cancelBatch == 0 {
		if err := c.ctx.Err(); err != nil {
			return hrdmerr.FromContext(err)
		}
	}
	return nil
}

func (s *Snapshot) newWorkerCancel() *workerCancel {
	if s == nil || s.ctx == nil {
		return nil
	}
	return &workerCancel{ctx: s.ctx}
}

// ---------------------------------------------------------------------
// the parallel operator

// tupleKernel is one operator's per-tuple work: it appends t's results
// (zero, one or several tuples) to out and returns the extended slice.
// Kernels must be order-preserving and per-tuple independent.
type tupleKernel func(t *core.Tuple, out []*core.Tuple) ([]*core.Tuple, error)

// parallelNode evaluates child's semantics by partitioned parallel
// execution. child itself never executes — it is kept for the plan
// tree (EXPLAIN, baseRel walks, estimate) — and src/mk re-express its
// work as an input slice plus a per-tuple kernel. window, when armed,
// prunes partitions whose lifespan bounds miss it entirely.
type parallelNode struct {
	child node
	rs    *schema.Scheme
	// src resolves the operator's input: a plan-time candidate slice or
	// the pinned tuples of a base relation.
	src func(s *Snapshot) []*core.Tuple
	// mk builds a fresh kernel per worker, so kernels may carry
	// per-worker state (the join's memoized candidate resolver).
	mk func(s *Snapshot) tupleKernel
	// window/windowed arm the lifespan-range partition prune; pruneSel
	// is the estimated fraction of partitions surviving it (from the
	// relation's lifespan-density statistics; 1 when unarmed).
	window   lifespan.Lifespan
	windowed bool
	pruneSel float64
}

func (n *parallelNode) scheme() *schema.Scheme { return n.rs }
func (n *parallelNode) children() []node       { return []node{n.child} }

func (n *parallelNode) estimate() cost {
	c := n.child.estimate()
	if n.windowed {
		// Density statistics bound how much of the scan the
		// lifespan-range prune can skip: partitions whose bounds miss
		// the window cost nothing.
		c.work *= n.pruneSel
	}
	return c
}

func (n *parallelNode) describe() string {
	d := fmt.Sprintf("parallel (chunk=%d", parallelChunkSize())
	if n.windowed {
		d += fmt.Sprintf(", prune-window %s", n.window)
	}
	return d + ")"
}

func (n *parallelNode) exec(s *Snapshot) (*core.Relation, error) {
	return s.profExec(n, func() (*core.Relation, error) {
		ts, err := n.runPartitions(s)
		if err != nil {
			return nil, err
		}
		return core.NewRelationFromTuples(n.rs, ts)
	})
}

func (n *parallelNode) open(s *Snapshot) (iterator, error) {
	// The partition run happens eagerly at open; under profiling its
	// cost is credited to this node up front so a streaming parent's
	// self time stays meaningful.
	t0 := time.Now()
	ts, err := n.runPartitions(s)
	if err != nil {
		return nil, err
	}
	if s != nil && s.prof != nil {
		s.prof.stats(n).wall += time.Since(t0)
	}
	return s.profIter(n, sliceIter(ts)), nil
}

// runPartitions is the parallel executor: partition the input, prune
// by lifespan bounds, fan the surviving chunks out over up to
// Snapshot.workers goroutines (the query goroutine always works;
// helpers come from the bounded pool), and concatenate the per-chunk
// results in chunk order.
func (n *parallelNode) runPartitions(s *Snapshot) ([]*core.Tuple, error) {
	if err := s.checkCancel(); err != nil {
		return nil, err
	}
	if s != nil && s.prof != nil {
		// Pre-create the stats entries workers may touch (profLookup on
		// the wrapped join): all map writes happen here, before the
		// fan-out, so workers only ever read the map.
		s.prof.stats(n)
		s.prof.stats(n.child)
	}
	parts := core.PartitionSlice(n.src(s), parallelChunkSize())
	degree := 1
	if s != nil && s.workers > degree {
		degree = s.workers
	}
	if degree > len(parts) {
		degree = len(parts)
	}

	results := make([][]*core.Tuple, len(parts))
	var next atomic.Int32
	var stop atomic.Bool
	var errMu sync.Mutex
	var firstErr error
	var scanned, pruned, rows atomic.Int64

	workerBody := func() {
		parMetrics.busy.Add(1)
		defer parMetrics.busy.Add(-1)
		kern := n.mk(s)
		cancel := s.newWorkerCancel()
		for !stop.Load() {
			i := int(next.Add(1)) - 1
			if i >= len(parts) {
				return
			}
			p := parts[i]
			if n.windowed && !p.Overlaps(n.window) {
				pruned.Add(1)
				continue
			}
			scanned.Add(1)
			var out []*core.Tuple
			var err error
			for _, t := range p.Tuples {
				if err = cancel.check(); err != nil {
					break
				}
				if out, err = kern(t, out); err != nil {
					break
				}
			}
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				stop.Store(true)
				return
			}
			rows.Add(int64(len(out)))
			results[i] = out
		}
	}

	helpers := 0
	var wg sync.WaitGroup
	for w := 1; w < degree; w++ {
		wg.Add(1)
		submitted := poolSubmit(func() {
			defer wg.Done()
			workerBody()
		})
		if submitted {
			helpers++
			parMetrics.tasks.Inc()
		} else {
			wg.Done()
		}
	}
	if helpers == 0 {
		parMetrics.inline.Inc()
	}
	workerBody()
	wg.Wait()

	parMetrics.scanned.Add(uint64(scanned.Load()))
	parMetrics.pruned.Add(uint64(pruned.Load()))
	parMetrics.rows.Add(uint64(rows.Load()))
	if s != nil && s.prof != nil {
		s.prof.stats(n).par = &parStats{
			degree:  helpers + 1,
			parts:   len(parts),
			scanned: int(scanned.Load()),
			pruned:  int(pruned.Load()),
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	total := 0
	for _, r := range results {
		total += len(r)
	}
	merged := make([]*core.Tuple, 0, total)
	for _, r := range results {
		merged = append(merged, r...)
	}
	return merged, nil
}

// ---------------------------------------------------------------------
// planner wrappers

// maybeParallel wraps n in a parallel node when it has an eligible
// shape — a per-tuple kernel over a partitionable input — and its
// input is large enough to amortize the fan-out. Called after costing
// picked n, so parallelism never changes which logical strategy wins.
func maybeParallel(n node, lc *lowerCtx) node {
	th := int(parallelMinInput.Load())
	switch x := n.(type) {
	case *indexSelectNode:
		if len(x.cand) >= th {
			return parallelOverCandidates(x, x.cand, func(t *core.Tuple, out []*core.Tuple) ([]*core.Tuple, error) {
				nt, err := filterTuple(t, x.cond, x.when, false, x.L)
				if err != nil {
					return out, err
				}
				if nt != nil {
					out = append(out, nt)
				}
				return out, nil
			})
		}
	case *indexTimeSliceNode:
		if len(x.cand) >= th {
			return parallelOverCandidates(x, x.cand, func(t *core.Tuple, out []*core.Tuple) ([]*core.Tuple, error) {
				if nt := t.Restrict(x.L); nt != nil {
					out = append(out, nt)
				}
				return out, nil
			})
		}
	case *timeSliceNode:
		if sc, ok := x.child.(*scanNode); ok && sc.rel.Cardinality() >= th {
			p := parallelOverScan(x, sc, func(t *core.Tuple, out []*core.Tuple) ([]*core.Tuple, error) {
				if nt := t.Restrict(x.L); nt != nil {
					out = append(out, nt)
				}
				return out, nil
			})
			p.armWindow(x.L, timesliceSelectivity(lc.relStats(sc.name, sc.rel), x.L))
			return p
		}
	case *filterNode:
		if sc, ok := x.child.(*scanNode); ok && sc.rel.Cardinality() >= th {
			p := parallelOverScan(x, sc, func(t *core.Tuple, out []*core.Tuple) ([]*core.Tuple, error) {
				nt, err := filterTuple(t, x.cond, x.when, x.forAll, x.L)
				if err != nil {
					return out, err
				}
				if nt != nil {
					out = append(out, nt)
				}
				return out, nil
			})
			if !x.forAll {
				// ∀ keeps tuples with empty scope (vacuous truth), so
				// only the existential and WHEN forms may skip
				// partitions that miss the DURING window.
				p.armWindow(x.L, timesliceSelectivity(lc.relStats(sc.name, sc.rel), x.L))
			}
			return p
		}
	case *indexJoinNode:
		if sc, ok := x.stream.(*scanNode); ok && sc.rel.Cardinality() >= th {
			return parallelJoin(x, sc)
		}
	}
	return n
}

// parallelOverCandidates wraps a candidate-set operator: the input is
// the plan-time candidate slice, fenced like every other plan-time
// constant by the plan's (relation, version) deps.
func parallelOverCandidates(child node, cand []*core.Tuple, kern tupleKernel) *parallelNode {
	return &parallelNode{
		child:    child,
		rs:       child.scheme(),
		src:      func(*Snapshot) []*core.Tuple { return cand },
		mk:       func(*Snapshot) tupleKernel { return kern },
		pruneSel: 1,
	}
}

// parallelOverScan wraps a streaming operator over a base scan: the
// input is the scan's pinned tuple slice, resolved per execution.
func parallelOverScan(child node, sc *scanNode, kern tupleKernel) *parallelNode {
	return &parallelNode{
		child:    child,
		rs:       child.scheme(),
		src:      func(s *Snapshot) []*core.Tuple { return s.tuplesOf(sc.rel) },
		mk:       func(*Snapshot) tupleKernel { return kern },
		pruneSel: 1,
	}
}

// armWindow enables the lifespan-range partition prune for window L,
// with sel the density-statistics estimate of the surviving fraction.
func (n *parallelNode) armWindow(L lifespan.Lifespan, sel float64) {
	if L.Equal(lifespan.All()) {
		return
	}
	n.window = L
	n.windowed = true
	n.pruneSel = clamp01(sel)
	if n.pruneSel <= 0 {
		n.pruneSel = 1.0 / 256
	}
}

// parallelJoin wraps an index lookup join whose streamed side is a
// base scan: partitions of the pinned stream probe the indexed side
// concurrently. Each worker gets its own candidate resolver — the
// resolver memoizes the varying-overflow resolution, which is
// per-goroutine state — and probes run through the snapshot-bounded
// accessors exactly as the sequential join's do.
func parallelJoin(x *indexJoinNode, sc *scanNode) *parallelNode {
	return &parallelNode{
		child: x,
		rs:    x.rs,
		src:   func(s *Snapshot) []*core.Tuple { return s.tuplesOf(sc.rel) },
		mk: func(s *Snapshot) tupleKernel {
			candidates := x.candidateFn(s)
			return func(t *core.Tuple, out []*core.Tuple) ([]*core.Tuple, error) {
				for _, o := range candidates(t) {
					t1, t2 := t, o
					a, b := x.streamAttr, x.indexedAttr
					if !x.leftIsStream {
						t1, t2 = o, t
						a, b = x.indexedAttr, x.streamAttr
					}
					nt, err := core.JoinPair(x.rs, t1, t2, a, value.EQ, b)
					if err != nil {
						return out, err
					}
					if nt != nil {
						out = append(out, nt)
					}
				}
				return out, nil
			}
		},
		pruneSel: 1,
	}
}
