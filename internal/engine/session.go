package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/hql"
	"repro/internal/hrdmerr"
	"repro/internal/storage"
)

// DB is the explicit handle to one historical database: a storage.Store
// plus shared lifecycle (checkpoint, close). It replaces the old idiom
// of passing a bare *storage.Store (or any hql.Env) around cmd/ code:
// every entry point — CLI shell, benchmark harness, server — opens a DB
// once and creates one Session per client/loop from it. Sessions are
// the only way to run a planned query. The process-wide pieces (plan
// cache, metrics registry) stay shared underneath, which is exactly
// what a multi-session server wants: two sessions issuing the same
// query share one cached plan.
//
// DB methods are safe for concurrent use.
type DB struct {
	store *storage.Store
	// workers is the degree of parallelism every session of this DB
	// executes parallel plan operators with (≥ 1).
	workers int

	mu     sync.Mutex
	closed bool
}

// DBOptions configures OpenDBOptions. The zero value matches OpenDB.
type DBOptions struct {
	// Workers is the degree of parallelism for this DB's queries:
	// 1 forces sequential execution, < 1 means GOMAXPROCS. Each query
	// binds it when it pins its snapshot; it is never part of a plan,
	// so DBs with different degrees share cached plans.
	Workers int
}

// OpenDB wraps an existing store — in-memory or durable — as a DB.
func OpenDB(st *storage.Store) *DB {
	return OpenDBOptions(st, DBOptions{})
}

// OpenDBOptions is OpenDB with explicit options — the `-workers` flag
// of the CLI, server and bench harness lands here.
func OpenDBOptions(st *storage.Store, o DBOptions) *DB {
	w := o.Workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	return &DB{store: st, workers: w}
}

// Store exposes the underlying store for administrative paths (save,
// merge, text dump); query and mutation traffic goes through Sessions.
func (db *DB) Store() *storage.Store { return db.store }

// NewSession returns a fresh session over this DB. Sessions are cheap;
// create one per connection or per worker goroutine.
func (db *DB) NewSession() *Session {
	return &Session{db: db}
}

// Checkpoint makes the durable image current (a no-op for in-memory
// stores), so a drain can bound recovery replay before exit.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return hrdmerr.New(hrdmerr.CodeState, "db is closed")
	}
	if !db.store.Durable() {
		return nil
	}
	return db.store.Checkpoint()
}

// Close checkpoints and closes a durable store; idempotent, and a
// no-op for in-memory stores.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if !db.store.Durable() {
		return nil
	}
	return db.store.Close()
}

// Session is one client's handle on a DB: queries with the engine's
// pinned-snapshot execution, session-scoped settings (the Section 5
// optimizer toggle), and an optional staged write group for atomic
// multi-relation mutations. Every error a Session returns carries an
// hrdmerr classification, so callers (the CLI's error[CODE] line, the
// server's wire envelope) never parse message strings.
//
// A Session is a single-goroutine object, like the core.WriteGroup it
// stages into: use one per connection. Distinct sessions over one DB
// may run fully concurrently — reads pin snapshots, commits serialize
// on the publish lock.
type Session struct {
	db       *DB
	optimize bool
	group    *core.WriteGroup
	staged   int
}

// DB returns the database this session was created from.
func (s *Session) DB() *DB { return s.db }

// SetOptimize toggles the Section 5 law-based rewriter for this
// session's queries. Off by default.
func (s *Session) SetOptimize(on bool) { s.optimize = on }

// Optimize reports the session's rewriter setting.
func (s *Session) Optimize() bool { return s.optimize }

// Query parses, plans and executes src under ctx, applying the
// session's optimizer setting: cancellation and deadlines abort
// mid-scan with ErrCanceled/ErrDeadline (see runQuery). Results
// reflect one pinned snapshot of the store.
func (s *Session) Query(ctx context.Context, src string) (hql.Result, error) {
	return runQuery(ctx, src, s.db.store, s.db.workers, s.optimize)
}

// Eval plans and executes an already-parsed expression, applying the
// session's optimizer setting first — the AST-level counterpart of
// Query for callers that parse once and run many times.
func (s *Session) Eval(ctx context.Context, e hql.Expr) (hql.Result, error) {
	if s.optimize {
		e, _ = hql.Optimize(e)
	}
	return evalExpr(ctx, e, s.db.store, s.db.workers)
}

// Explain renders the chosen physical plan without executing it,
// honoring the session's optimizer setting.
func (s *Session) Explain(src string) (string, error) {
	return explainQuery(src, s.db.store, s.optimize)
}

// ExplainAnalyze executes src under ctx with per-operator profiling
// and renders the annotated plan.
func (s *Session) ExplainAnalyze(ctx context.Context, src string) (string, error) {
	a, err := analyzeQuery(ctx, src, s.db.store, s.optimize, s.db.workers)
	if err != nil {
		return "", err
	}
	return a.render(), nil
}

// BeginGroup opens a staged write group. ErrState if one is already
// open — groups do not nest.
func (s *Session) BeginGroup() error {
	if s.group != nil {
		return hrdmerr.New(hrdmerr.CodeState, "write group already open (commit or abort it first)")
	}
	s.group = core.NewWriteGroup()
	s.staged = 0
	return nil
}

// Stage parses one tuple spec (storage.ParseTuple's format) against
// relation rel's scheme and stages it into the open group with
// history-merging semantics. Returns the number of tuples staged so
// far. ErrState without an open group; ErrBadRequest for an unknown
// relation or an unparsable spec.
func (s *Session) Stage(rel, spec string) (int, error) {
	if s.group == nil {
		return 0, hrdmerr.New(hrdmerr.CodeState, "no open write group (begin_group first)")
	}
	r, ok := s.db.store.Get(rel)
	if !ok {
		return s.staged, hrdmerr.New(hrdmerr.CodeBadRequest, "unknown relation %s", rel)
	}
	t, err := storage.ParseTuple(r.Scheme(), spec)
	if err != nil {
		return s.staged, hrdmerr.Wrap(hrdmerr.CodeBadRequest, err)
	}
	s.group.InsertMerging(r, t)
	s.staged++
	return s.staged, nil
}

// Commit atomically publishes the open group: every staged tuple
// lands, across however many relations, in one version bump and one
// epoch tick — or none of it does. Validation failures (duplicate
// keys, contradicting histories) surface as ErrConflict with the
// group discarded either way, matching core.WriteGroup's
// discard-after-commit contract. Returns the number of tuples
// committed.
func (s *Session) Commit(ctx context.Context) (int, error) {
	if s.group == nil {
		return 0, hrdmerr.New(hrdmerr.CodeState, "no open write group (begin_group first)")
	}
	if err := ctx.Err(); err != nil {
		return 0, hrdmerr.FromContext(err)
	}
	g, n := s.group, s.staged
	s.group, s.staged = nil, 0
	if err := g.Commit(); err != nil {
		return 0, hrdmerr.Wrap(hrdmerr.CodeConflict, err)
	}
	return n, nil
}

// Abort discards the open group without applying anything; reports
// whether there was a group to discard.
func (s *Session) Abort() bool {
	had := s.group != nil
	s.group, s.staged = nil, 0
	return had
}

// InGroup reports whether a write group is open.
func (s *Session) InGroup() bool { return s.group != nil }

// Staged reports how many tuples the open group holds.
func (s *Session) Staged() int { return s.staged }

// String identifies the session's store for diagnostics.
func (s *Session) String() string {
	kind := "mem"
	if s.db.store.Durable() {
		kind = "durable:" + s.db.store.Dir()
	}
	return fmt.Sprintf("session(%s, %d relations)", kind, len(s.db.store.Names()))
}
