package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hrdmerr"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestCancelIterBatchBoundary pins the cancellation granularity
// contract: once the context is canceled, a streaming iterator aborts
// within one batch — at most cancelBatch further pulls — with the
// typed ErrCanceled, instead of draining its source.
func TestCancelIterBatchBoundary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Snapshot{}
	s.attachCtx(ctx)
	pulls := 0
	it := s.cancelIter(func() (*core.Tuple, error) {
		pulls++
		return &core.Tuple{}, nil
	})
	for i := 0; i < 10; i++ {
		if _, err := it(); err != nil {
			t.Fatalf("pull %d before cancel: %v", i, err)
		}
	}
	cancel()
	var err error
	extra := 0
	for ; extra <= cancelBatch; extra++ {
		if _, err = it(); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatalf("iterator survived %d pulls after cancel (batch is %d)", extra, cancelBatch)
	}
	if !errors.Is(err, hrdmerr.ErrCanceled) {
		t.Fatalf("post-cancel pull error = %v, want ErrCanceled", err)
	}
	if pulls > 10+cancelBatch {
		t.Fatalf("source pulled %d times after cancel, want ≤ %d", pulls-10, cancelBatch)
	}
}

// TestCancelIterUncancellable checks the zero-cost fast path: a
// Background context never arms the snapshot, so iterators are
// returned unwrapped.
func TestCancelIterUncancellable(t *testing.T) {
	s := &Snapshot{}
	s.attachCtx(context.Background())
	if s.ctx != nil {
		t.Fatal("Background context armed the snapshot")
	}
	if err := s.checkCancel(); err != nil {
		t.Fatalf("checkCancel on unarmed snapshot: %v", err)
	}
}

// flipCtx is a context that reports canceled starting from its n-th
// Err() call: a deterministic stand-in for "the client cancels while
// the scan is mid-flight", without goroutine timing in the test.
type flipCtx struct {
	calls, after int
	done         chan struct{}
}

func newFlipCtx(after int) *flipCtx {
	return &flipCtx{after: after, done: make(chan struct{})}
}

func (c *flipCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *flipCtx) Done() <-chan struct{}       { return c.done }
func (c *flipCtx) Value(any) any               { return nil }
func (c *flipCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestRunContextCanceledMidScan is the end-to-end acceptance check: a
// query over a relation much larger than one iterator batch, whose
// context flips to canceled after execution has started, returns the
// typed ErrCanceled instead of completing the scan.
func TestRunContextCanceledMidScan(t *testing.T) {
	ResetPlanCache()
	st := storage.NewStore()
	st.Put(workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 4 * cancelBatch, HistoryLen: 40, ChangeEvery: 10, Seed: 7,
	}))
	// Survive the entry precheck and the first operator boundary, then
	// cancel: the abort must come from a mid-execution check.
	ctx := newFlipCtx(2)
	// No equality conjunct → no index candidates: the plan is a full
	// scan under a filter, so execution genuinely streams every tuple.
	_, err := runQuery(ctx, `SELECT WHEN SAL > 0 FROM EMP`, st, testWorkers, false)
	if err == nil {
		t.Fatal("canceled query completed")
	}
	if !errors.Is(err, hrdmerr.ErrCanceled) {
		t.Fatalf("error = %v, want ErrCanceled", err)
	}
	if hrdmerr.CodeOf(err) != hrdmerr.CodeCanceled {
		t.Fatalf("code = %v, want CodeCanceled", hrdmerr.CodeOf(err))
	}
	if ctx.calls < 3 {
		t.Fatalf("only %d context checks observed — cancellation never reached execution", ctx.calls)
	}
}

// TestRunContextPreCanceled: an already-canceled context fails fast
// with the typed error, before parsing or pinning anything.
func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := storage.NewStore()
	if _, err := runQuery(ctx, `not even valid HQL`, st, testWorkers, false); !errors.Is(err, hrdmerr.ErrCanceled) {
		t.Fatalf("pre-canceled runQuery error = %v, want ErrCanceled", err)
	}
	if _, err := evalExpr(ctx, nil, st, testWorkers); !errors.Is(err, hrdmerr.ErrCanceled) {
		t.Fatalf("pre-canceled evalExpr error = %v, want ErrCanceled", err)
	}
}

// TestRunContextDeadline: an expired deadline surfaces as ErrDeadline,
// distinct from plain cancellation.
func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	st := storage.NewStore()
	st.Put(workload.Personnel(workload.DefaultPersonnel()))
	_, err := runQuery(ctx, `SELECT WHEN SAL = 30000 FROM EMP`, st, testWorkers, false)
	if !errors.Is(err, hrdmerr.ErrDeadline) {
		t.Fatalf("expired-deadline error = %v, want ErrDeadline", err)
	}
}

// TestRunBackgroundUnchanged: the context-free wrappers still work and
// the cached fast path stays available to them.
func TestRunBackgroundUnchanged(t *testing.T) {
	ResetPlanCache()
	st := storage.NewStore()
	st.Put(workload.Personnel(workload.DefaultPersonnel()))
	q := `SELECT WHEN SAL = 30000 FROM EMP`
	r1, err := run(q, st)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	r2, err := run(q, st)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if r1.Relation == nil || r2.Relation == nil || !r1.Relation.Equal(r2.Relation) {
		t.Fatal("cached re-run differs from first run")
	}
}
