package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hrdmerr"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// startServer builds a demo-store server with cfg, starts it, and
// registers a best-effort shutdown for test exit.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv := New(engine.OpenDB(workload.Demo()), cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// tclient is a minimal protocol client: one request line out, one
// response line back.
type tclient struct {
	c net.Conn
	r *bufio.Reader
}

func dialT(t *testing.T, addr string) *tclient {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return &tclient{c: c, r: bufio.NewReaderSize(c, 1<<20)}
}

func (tc *tclient) send(t *testing.T, req request) {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.c.Write(append(buf, '\n')); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func (tc *tclient) recv(t *testing.T) response {
	t.Helper()
	tc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	line, err := tc.r.ReadString('\n')
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	var resp response
	if err := json.Unmarshal([]byte(line), &resp); err != nil {
		t.Fatalf("unmarshal %q: %v", line, err)
	}
	return resp
}

func (tc *tclient) do(t *testing.T, req request) response {
	t.Helper()
	tc.send(t, req)
	return tc.recv(t)
}

// TestServerProtocol drives every op over one connection: ping, query,
// explain, the session optimizer toggle, the write-group lifecycle
// (staged tuples visible after commit), metrics, and the typed error
// envelope for parse failures, bad requests and state violations.
func TestServerProtocol(t *testing.T) {
	srv := startServer(t, Config{})
	tc := dialT(t, srv.Addr())

	if resp := tc.do(t, request{Op: "ping"}); !resp.OK || resp.Result != "pong" {
		t.Fatalf("ping = %+v", resp)
	}
	resp := tc.do(t, request{Op: "query", Q: `SELECT WHEN NAME = 'John' FROM EMP`})
	if !resp.OK || resp.Rows != 1 || !strings.Contains(resp.Result, "John") {
		t.Fatalf("query = %+v", resp)
	}
	if resp := tc.do(t, request{Op: "explain", Q: `SELECT WHEN NAME = 'John' FROM EMP`}); !resp.OK || !strings.Contains(resp.Text, "plan-cache") {
		t.Fatalf("explain = %+v", resp)
	}
	if resp := tc.do(t, request{Op: "explain", Q: `EMP`, Analyze: true}); !resp.OK || !strings.Contains(resp.Text, "actual") {
		t.Fatalf("explain analyze = %+v", resp)
	}
	on := true
	if resp := tc.do(t, request{Op: "set", Optimize: &on}); !resp.OK || resp.Result != "optimize=true" {
		t.Fatalf("set = %+v", resp)
	}

	// Write-group lifecycle: begin → stage → commit → visible.
	if resp := tc.do(t, request{Op: "begin_group"}); !resp.OK {
		t.Fatalf("begin_group = %+v", resp)
	}
	resp = tc.do(t, request{Op: "stage", Rel: "EMP",
		Tuple: `tuple {[20,29]}; NAME = "Zoe" @ {[20,29]}; SAL = 50000 @ {[20,29]}; DEPT = "Books" @ {[20,29]}`})
	if !resp.OK || resp.Staged != 1 {
		t.Fatalf("stage = %+v", resp)
	}
	if resp := tc.do(t, request{Op: "commit"}); !resp.OK || resp.Committed != 1 {
		t.Fatalf("commit = %+v", resp)
	}
	if resp := tc.do(t, request{Op: "query", Q: `SELECT WHEN NAME = 'Zoe' FROM EMP`}); !resp.OK || resp.Rows != 1 {
		t.Fatalf("query committed tuple = %+v", resp)
	}

	if resp := tc.do(t, request{Op: "metrics"}); !resp.OK || !strings.Contains(string(resp.Metrics), "engine.queries") {
		t.Fatalf("metrics = %+v", resp)
	}

	// Error envelope: stable codes per class.
	cases := []struct {
		req  request
		code hrdmerr.Code
	}{
		{request{Op: "query", Q: `SELECT !! garbage`}, hrdmerr.CodeParse},
		{request{Op: "nope"}, hrdmerr.CodeBadRequest},
		{request{Op: "commit"}, hrdmerr.CodeState},
		{request{Op: "stage", Rel: "EMP", Tuple: "x"}, hrdmerr.CodeState},
	}
	for _, c := range cases {
		resp := tc.do(t, c.req)
		if resp.OK || resp.Error == nil || resp.Error.Code != int(c.code) {
			t.Fatalf("op %s: resp = %+v, want error code %d", c.req.Op, resp, c.code)
		}
		if resp.Error.Class != c.code.String() {
			t.Fatalf("op %s: class = %q, want %q", c.req.Op, resp.Error.Class, c.code)
		}
	}

	// Malformed JSON keeps the connection alive with a bad_request.
	if _, err := tc.c.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	if resp := tc.recv(t); resp.OK || resp.Error == nil || resp.Error.Code != int(hrdmerr.CodeBadRequest) {
		t.Fatalf("malformed line = %+v", resp)
	}
	if resp := tc.do(t, request{Op: "ping"}); !resp.OK {
		t.Fatalf("connection dead after malformed line: %+v", resp)
	}
}

// TestOversizedRequestLine: a request line at the scanner's limit is
// served, and one just over it gets a typed bad_request reply before
// the server closes the connection — never a silent drop.
func TestOversizedRequestLine(t *testing.T) {
	srv := startServer(t, Config{})
	tc := dialT(t, srv.Addr())

	ping := `{"op":"ping"}`
	atLimit := ping + strings.Repeat(" ", maxRequestLine-1-len(ping)) + "\n"
	if _, err := tc.c.Write([]byte(atLimit)); err != nil {
		t.Fatal(err)
	}
	if resp := tc.recv(t); !resp.OK || resp.Result != "pong" {
		t.Fatalf("%d-byte line = %+v, want pong", len(atLimit), resp)
	}

	over := `{"op":"query","q":"` + strings.Repeat("x", maxRequestLine+1) + `"}` + "\n"
	if _, err := tc.c.Write([]byte(over)); err != nil {
		t.Fatal(err)
	}
	resp := tc.recv(t)
	if resp.OK || resp.Error == nil || resp.Error.Code != int(hrdmerr.CodeBadRequest) {
		t.Fatalf("%d-byte line = %+v, want bad_request", len(over), resp)
	}
	if _, err := tc.r.ReadString('\n'); err == nil {
		t.Fatal("connection still open after an oversized line")
	}
}

// TestAdmissionInflight: with one inflight slot held, the next query is
// rejected immediately with the typed overloaded error — and succeeds
// once the slot frees.
func TestAdmissionInflight(t *testing.T) {
	srv := startServer(t, Config{MaxInflight: 1})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.testHold = func(ctx context.Context, op string) {
		entered <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
	}

	blocked := dialT(t, srv.Addr())
	blocked.send(t, request{Op: "query", Q: `EMP`})
	<-entered

	fast := dialT(t, srv.Addr())
	resp := fast.do(t, request{Op: "query", Q: `EMP`})
	if resp.OK || resp.Error == nil || resp.Error.Code != int(hrdmerr.CodeOverloaded) {
		t.Fatalf("over-limit query = %+v, want overloaded (code %d)", resp, hrdmerr.CodeOverloaded)
	}

	close(release)
	if resp := blocked.recv(t); !resp.OK {
		t.Fatalf("held query after release = %+v", resp)
	}
	if resp := fast.do(t, request{Op: "query", Q: `EMP`}); !resp.OK {
		t.Fatalf("query after slot freed = %+v", resp)
	}
}

// TestAdmissionMaxConns: a connection past the limit is answered with
// one typed overloaded line and closed, not left hanging.
func TestAdmissionMaxConns(t *testing.T) {
	srv := startServer(t, Config{MaxConns: 1})
	keeper := dialT(t, srv.Addr())
	if resp := keeper.do(t, request{Op: "ping"}); !resp.OK {
		t.Fatalf("first conn ping = %+v", resp)
	}
	over := dialT(t, srv.Addr())
	resp := over.recv(t)
	if resp.OK || resp.Error == nil || resp.Error.Code != int(hrdmerr.CodeOverloaded) {
		t.Fatalf("over-limit conn = %+v, want overloaded", resp)
	}
	if _, err := over.r.ReadByte(); err == nil {
		t.Fatal("rejected connection was not closed")
	}
	// The admitted connection is unaffected.
	if resp := keeper.do(t, request{Op: "ping"}); !resp.OK {
		t.Fatalf("keeper ping after rejection = %+v", resp)
	}
}

// TestQueryDeadline: a query that outlives the per-query deadline
// aborts with the typed deadline error instead of hanging the
// connection.
func TestQueryDeadline(t *testing.T) {
	srv := startServer(t, Config{QueryDeadline: 50 * time.Millisecond})
	srv.testHold = func(ctx context.Context, op string) { <-ctx.Done() }
	tc := dialT(t, srv.Addr())
	resp := tc.do(t, request{Op: "query", Q: `EMP`})
	if resp.OK || resp.Error == nil || resp.Error.Code != int(hrdmerr.CodeDeadline) {
		t.Fatalf("deadline query = %+v, want deadline (code %d)", resp, hrdmerr.CodeDeadline)
	}
}

// TestGracefulDrain: Shutdown lets an in-flight query finish and its
// client read the response, wakes idle connections, and stops
// accepting — all within the grace.
func TestGracefulDrain(t *testing.T) {
	srv := startServer(t, Config{DrainTimeout: 5 * time.Second})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.testHold = func(ctx context.Context, op string) {
		entered <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
	}

	idle := dialT(t, srv.Addr())
	if resp := idle.do(t, request{Op: "ping"}); !resp.OK {
		t.Fatalf("idle ping = %+v", resp)
	}
	busy := dialT(t, srv.Addr())
	busy.send(t, request{Op: "query", Q: `SELECT WHEN NAME = 'John' FROM EMP`})
	<-entered

	done := make(chan error, 1)
	go func() {
		done <- srv.Shutdown(context.Background())
	}()
	// Let the drain reach its waiting phase, then release the in-flight
	// query: the client must still receive its full response.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if resp := busy.recv(t); !resp.OK || resp.Rows != 1 {
		t.Fatalf("in-flight query during drain = %+v", resp)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// New connections are refused after drain.
	if c, err := net.DialTimeout("tcp", srv.Addr(), time.Second); err == nil {
		c.Close()
		t.Fatal("post-drain dial succeeded")
	}
}

// TestDrainDeadlineForcesCancel: when in-flight work outlives the
// drain grace, Shutdown cancels it via the base context (queries see a
// typed abort) and still completes instead of hanging.
func TestDrainDeadlineForcesCancel(t *testing.T) {
	srv := startServer(t, Config{DrainTimeout: 100 * time.Millisecond})
	entered := make(chan struct{}, 1)
	var sawCancel atomic.Bool
	srv.testHold = func(ctx context.Context, op string) {
		entered <- struct{}{}
		<-ctx.Done() // only a forced drain (or deadline) releases this
		sawCancel.Store(true)
	}
	stuck := dialT(t, srv.Addr())
	stuck.send(t, request{Op: "query", Q: `EMP`})
	<-entered

	start := time.Now()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("forced drain took %v", elapsed)
	}
	if !sawCancel.Load() {
		t.Fatal("in-flight query was never canceled")
	}
}

// TestConcurrentClientsConsistency is the acceptance race test: 64
// client connections issue a query spanning two relations while a
// writer commits cross-relation write groups through the session API.
// Group i stages ID 2i into A and ID 2i+1 into B — distinct keys, so
// A UNIONMERGE B merges nothing and a consistent cut after n groups
// has exactly 2n rows. A torn read (group half-visible) has 2n+1: the
// detector is an odd row count. Readers span the writer by
// construction — every client reads once before the first commit and
// once after the last, and the writer waits for a completed read
// between consecutive commits — so the test must observe at least two
// distinct cardinalities or it raced nothing. A deterministic negative
// control then feeds the detector a split cut (A read, one group
// committed, B read) and requires it to fire. Run under -race in CI.
func TestConcurrentClientsConsistency(t *testing.T) {
	const (
		clients = 64
		groups  = 200
	)
	full := lifespan.Interval(0, 999)
	mkRel := func(name string) *core.Relation {
		return core.NewRelation(schema.MustNew(name, []string{"ID"},
			schema.Attribute{Name: "ID", Domain: value.Ints, Lifespan: full},
		))
	}
	st := storage.NewStore()
	st.Put(mkRel("A"))
	st.Put(mkRel("B"))
	db := engine.OpenDB(st)
	srv := New(db, Config{MaxConns: clients + 8, MaxInflight: clients + 8})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	torn := func(rows int) bool { return rows%2 != 0 }
	writer := db.NewSession()
	commitGroup := func(i int) error {
		if err := writer.BeginGroup(); err != nil {
			return err
		}
		if _, err := writer.Stage("A", fmt.Sprintf(`tuple {[0,9]}; ID = %d @ {[0,9]}`, 2*i)); err != nil {
			return err
		}
		if _, err := writer.Stage("B", fmt.Sprintf(`tuple {[0,9]}; ID = %d @ {[0,9]}`, 2*i+1)); err != nil {
			return err
		}
		_, err := writer.Commit(context.Background())
		return err
	}

	var (
		reads, tornReads atomic.Int64
		seenMu           sync.Mutex
		seen             = map[int]bool{}
		ready, wg        sync.WaitGroup
		writerDone       = make(chan struct{})
	)
	ready.Add(clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			signaled := false
			defer func() {
				if !signaled {
					ready.Done()
				}
			}()
			c, err := dialQuery(srv.Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.c.Close()
			for {
				var last bool
				select {
				case <-writerDone:
					last = true // this read starts after the final commit
				default:
				}
				rows, err := c.query(`A UNIONMERGE B`)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				reads.Add(1)
				if torn(rows) {
					tornReads.Add(1)
				}
				seenMu.Lock()
				seen[rows] = true
				seenMu.Unlock()
				if !signaled {
					signaled = true
					ready.Done() // first read finished before any commit
				}
				if last {
					return
				}
			}
		}()
	}

	ready.Wait()
	var writerErr error
	for i := 0; i < groups && writerErr == nil; i++ {
		before := reads.Load()
		if writerErr = commitGroup(i); writerErr != nil {
			break
		}
		// Hand the readers the new state before the next commit.
		for deadline := time.Now().Add(10 * time.Second); reads.Load() == before; {
			if time.Now().After(deadline) {
				writerErr = fmt.Errorf("no read completed after commit %d", i)
				break
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	close(writerDone)
	wg.Wait()
	if writerErr != nil {
		t.Fatalf("writer: %v", writerErr)
	}
	if n := tornReads.Load(); n != 0 {
		t.Fatalf("%d torn reads (odd cross-relation cardinality) — snapshot isolation violated", n)
	}
	if len(seen) < 2 {
		t.Fatalf("readers saw %d distinct cardinalities, want >= 2: the reads raced no commit", len(seen))
	}

	// Negative control: a cut split across a commit — A before group
	// `groups`, B after it — must trip the same detector.
	c, err := dialQuery(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.c.Close()
	rowsA, err := c.query(`A`)
	if err != nil {
		t.Fatal(err)
	}
	if err := commitGroup(groups); err != nil {
		t.Fatal(err)
	}
	rowsB, err := c.query(`B`)
	if err != nil {
		t.Fatal(err)
	}
	if !torn(rowsA + rowsB) {
		t.Fatalf("split cut A=%d + B=%d rows not flagged as torn: the detector is not live", rowsA, rowsB)
	}
}

// dialQuery connects a goroutine-safe query client (errors are
// returned, never t.Fatal'd).
func dialQuery(addr string) (*tclient, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &tclient{c: c, r: bufio.NewReaderSize(c, 1<<20)}, nil
}

// query runs one HQL query over the connection and returns the result's
// row count.
func (tc *tclient) query(q string) (int, error) {
	buf, _ := json.Marshal(request{Op: "query", Q: q})
	if _, err := tc.c.Write(append(buf, '\n')); err != nil {
		return 0, err
	}
	tc.c.SetReadDeadline(time.Now().Add(30 * time.Second))
	line, err := tc.r.ReadString('\n')
	if err != nil {
		return 0, err
	}
	var resp response
	if err := json.Unmarshal([]byte(line), &resp); err != nil {
		return 0, err
	}
	if !resp.OK {
		return 0, fmt.Errorf("query %q failed: %+v", q, resp.Error)
	}
	return resp.Rows, nil
}
