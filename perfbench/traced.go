package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/hql"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Span names: one per layer boundary the in-process replay crosses.
type spanName uint8

const (
	spanRead       spanName = iota // root of one read request
	spanParse                      // hql.Parse
	spanEval                       // Session.Eval: plan cache, plan, pin, execute
	spanRender                     // hql.Result.String
	spanEncode                     // json.Marshal of the server's reply
	spanWrite                      // root of one write group
	spanBeginGroup                 // Session.BeginGroup
	spanStage                      // Session.Stage
	spanCommit                     // Session.Commit: publish lock, WAL append and fsync, index upkeep
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"request.read", "hql.parse", "engine.eval", "hql.render", "server.encode",
	"request.write", "engine.begin_group", "engine.stage", "engine.commit",
}

type span struct {
	name       spanName
	parent     int32 // index in the same tracer, -1 for a request's root
	req        int64
	start, end int64 // ns since the tracer's base
}

// tracer records one role's spans in memory. A nil tracer records
// nothing, which is the untraced replay.
type tracer struct {
	base  time.Time
	role  int64
	seq   int64
	spans []span
}

func (t *tracer) begin(name spanName, parent int32) int32 {
	if t == nil {
		return -1
	}
	if parent < 0 {
		t.seq++
	}
	t.spans = append(t.spans, span{
		name: name, parent: parent, req: t.role<<40 | t.seq,
		start: int64(time.Since(t.base)),
	})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t != nil {
		t.spans[i].end = int64(time.Since(t.base))
	}
}

// localExec replays requests in process through the same calls the
// server makes for them.
type localExec struct {
	sess *engine.Session
	tr   *tracer
}

// reply mirrors the server's query response, so encoding costs the same.
type reply struct {
	OK     bool   `json:"ok"`
	Result string `json:"result,omitempty"`
	Rows   int    `json:"rows,omitempty"`
}

func (x *localExec) read(q string, keep bool) (int, string, error) {
	t := x.tr
	root := t.begin(spanRead, -1)
	defer t.end(root)
	s := t.begin(spanParse, root)
	e, err := hql.Parse(q)
	t.end(s)
	if err != nil {
		return 0, "", err
	}
	s = t.begin(spanEval, root)
	res, err := x.sess.Eval(context.Background(), e)
	t.end(s)
	if err != nil {
		return 0, "", err
	}
	rows := cardinality(res)
	s = t.begin(spanRender, root)
	text := res.String()
	t.end(s)
	s = t.begin(spanEncode, root)
	_, err = json.Marshal(reply{OK: true, Result: text, Rows: rows})
	t.end(s)
	if !keep {
		text = ""
	}
	return rows, text, err
}

func (x *localExec) commitGroup(rel string, specs []string) error {
	t := x.tr
	root := t.begin(spanWrite, -1)
	defer t.end(root)
	s := t.begin(spanBeginGroup, root)
	err := x.sess.BeginGroup()
	t.end(s)
	if err != nil {
		return err
	}
	for _, spec := range specs {
		s = t.begin(spanStage, root)
		_, err = x.sess.Stage(rel, spec)
		t.end(s)
		if err != nil {
			x.sess.Abort()
			return err
		}
	}
	s = t.begin(spanCommit, root)
	_, err = x.sess.Commit(context.Background())
	t.end(s)
	return err
}

// selfTimes computes every span's self time, its duration minus the
// part of it its child spans cover, and checks per request that the
// self times add up to the root span's duration. Spans are in begin
// order, so a parent precedes its children and siblings come in start
// order.
func selfTimes(spans []span) ([]int64, error) {
	self := make([]int64, len(spans))
	covEnd := make([]int64, len(spans)) // end of the children's union so far
	for i, s := range spans {
		self[i] = s.end - s.start
		covEnd[i] = s.start
		if s.parent < 0 {
			continue
		}
		p := &spans[s.parent]
		lo, hi := max(s.start, covEnd[s.parent]), min(s.end, p.end)
		if hi > lo {
			self[s.parent] -= hi - lo
			covEnd[s.parent] = hi
		}
	}
	var root int32 = -1
	var sum int64
	check := func() error {
		if root >= 0 && sum != spans[root].end-spans[root].start {
			return fmt.Errorf("request %d: self times add up to %dns, its root span lasts %dns",
				spans[root].req, sum, spans[root].end-spans[root].start)
		}
		return nil
	}
	for i, s := range spans {
		if s.parent < 0 {
			if err := check(); err != nil {
				return nil, err
			}
			root, sum = int32(i), 0
		}
		sum += self[i]
	}
	return self, check()
}

// writeSpans writes every span as one JSON line.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, t := range tracers {
		for i, s := range t.spans {
			parent := int64(-1)
			if s.parent >= 0 {
				parent = t.role<<32 | int64(s.parent)
			}
			fmt.Fprintf(w, `{"req":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				s.req, t.role<<32|int64(i), parent, spanNames[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// allocStats is the heap allocation of the eval and render layers,
// averaged over a sequential replay where nothing else runs.
type allocStats struct {
	evalAllocs, renderAllocs, renderBytes float64
}

func measureAllocs(sess *engine.Session, gen *queryGen, n int) (allocStats, error) {
	var a allocStats
	var m0, m1, m2 runtime.MemStats
	ctx := context.Background()
	for i := 0; i < n; i++ {
		e, err := hql.Parse(gen.next())
		if err != nil {
			return a, err
		}
		runtime.ReadMemStats(&m0)
		res, err := sess.Eval(ctx, e)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return a, err
		}
		renderSink = res.String()
		runtime.ReadMemStats(&m2)
		a.evalAllocs += float64(m1.Mallocs - m0.Mallocs)
		a.renderAllocs += float64(m2.Mallocs - m1.Mallocs)
		a.renderBytes += float64(m2.TotalAlloc - m1.TotalAlloc)
	}
	a.evalAllocs /= float64(n)
	a.renderAllocs /= float64(n)
	a.renderBytes /= float64(n)
	return a, nil
}

// renderSink keeps the measured rendering from being optimized away.
var renderSink string

// traced measures the layers: storage open and index build in process,
// a served phase, then the same request streams replayed in process
// untraced and traced, each phase a third of the measured time.
func (b *bench) traced() (result, error) {
	dir, err := b.phaseDir("inproc")
	if err != nil {
		return result{}, err
	}
	// The open is timed without the index build that ends it, which is
	// then timed on its own.
	builder := storage.IndexBuilder
	storage.IndexBuilder = nil
	t0 := time.Now()
	st, _, err := storage.OpenDurable(dir)
	openS := time.Since(t0).Seconds()
	storage.IndexBuilder = builder
	if err != nil {
		return result{}, err
	}
	defer st.Close()
	t0 = time.Now()
	st.RebuildIndexes()
	indexS := time.Since(t0).Seconds()
	phase := b.measure / 3

	sdir, err := b.phaseDir("served")
	if err != nil {
		return result{}, err
	}
	srv, _, err := startServer(b.serverBin, sdir)
	if err != nil {
		return result{}, err
	}
	served, _ := b.serveLoad(srv.addr, phase, newGroupGen(b.seed))
	if err := srv.stop(); err != nil {
		return result{}, err
	}

	db := engine.OpenDB(st)
	locals := func(trs []*tracer) []executor {
		es := make([]executor, b.sp.conns())
		for i := range es {
			es[i] = &localExec{sess: db.NewSession(), tr: trs[i]}
		}
		return es
	}
	gen := newGroupGen(b.seed)
	// Each in-process phase starts from a cold plan cache, as the
	// server did.
	engine.ResetPlanCache()
	untraced := merged(runPhase(b.sp, b.seed, gen, locals(make([]*tracer, b.sp.conns())), newWindow(phase)))

	engine.ResetPlanCache()
	// Role readers is the writer, or the commit probe after a read-only
	// load.
	tracers := make([]*tracer, b.sp.readers+1)
	base := time.Now()
	for i := range tracers {
		tracers[i] = &tracer{base: base, role: int64(i)}
	}
	win := newWindow(phase)
	// Counter deltas cover the measured part of the phase and the commit
	// probe.
	snap := make(chan obs.Snapshot, 1)
	time.AfterFunc(time.Until(win.from), func() { snap <- obs.Default.Snapshot() })
	phaseSt := runPhase(b.sp, b.seed, gen, locals(tracers), win)
	if b.sp.writerRate == 0 {
		probe := &localExec{sess: db.NewSession(), tr: tracers[b.sp.readers]}
		phaseSt = append(phaseSt, probeCommits(probe, b.sp.target, gen, probeGroups))
	}
	tracedSt := merged(phaseSt)
	before, after := <-snap, obs.Default.Snapshot()
	d := after.CounterDelta(before)

	res := b.tally(tracedSt)
	for _, p := range []*roleStats{served, untraced} {
		res.Attempted += p.reads + p.commits + p.commitFails
		res.Failed += p.readFails + p.commitFails
	}

	layers, err := spanMetrics(tracers, int64(win.from.Sub(base)))
	if err != nil {
		return result{}, err
	}
	if err := writeSpans(filepath.Join(b.work, b.name+".spans.jsonl"), tracers); err != nil {
		return result{}, err
	}

	// Allocation counts come from a sequential replay of role 0's
	// stream, after as many unmeasured requests as it measures.
	allocN := 200
	if b.sp.mix == rangeMix {
		allocN = 20
	}
	engine.ResetPlanCache()
	qg := newQueryGen(b.seed, 0, b.sp.mix)
	if _, err := measureAllocs(db.NewSession(), qg, allocN); err != nil {
		return result{}, err
	}
	allocs, err := measureAllocs(db.NewSession(), qg, allocN)
	if err != nil {
		return result{}, err
	}

	acked := append(untraced.acked, tracedSt.acked...)
	samples := append(untraced.samples, tracedSt.samples...)
	_, checked, err := verify(&localExec{sess: db.NewSession()}, genStore(b.seed), b.sp, b.seed, acked, samples)
	b.facts["checked_replies"] = checked
	b.check(&res, err)

	untracedP50 := quantileMs(untraced.readLat, 0.5) * 1000
	reads := float64(tracedSt.reads)
	commits := float64(tracedSt.commits)
	fsync := after.Histograms["wal.append.fsync_ns"]
	fsync0 := before.Histograms["wal.append.fsync_ns"]
	hits, misses := float64(d["engine.plancache.hits"]), float64(d["engine.plancache.misses"])
	b.facts["bases"] = map[string]any{
		"traced_reads": tracedSt.reads, "traced_commits": tracedSt.commits,
		"alloc_sample_reads": allocN, "untraced_read_p50_us": untracedP50,
		"served_reads": served.reads, "served_read_p50_us": quantileMs(served.readLat, 0.5) * 1000,
		"counter_deltas": d,
	}
	res.Metrics = map[string]metric{
		"hql.parse.self_us":                   {layers[spanParse], "us"},
		"hql.render.self_us":                  {layers[spanRender], "us"},
		"hql.render.allocs_per_req":           {allocs.renderAllocs, "count"},
		"hql.render.bytes_per_req":            {allocs.renderBytes, "bytes"},
		"engine.eval.self_us":                 {layers[spanEval], "us"},
		"engine.eval.allocs_per_req":          {allocs.evalAllocs, "count"},
		"engine.rows_per_req":                 {ratio(float64(tracedSt.rows), reads), "rows"},
		"engine.plancache.hit_ratio":          {ratio(hits, hits+misses), "ratio"},
		"engine.parallel.inline_ratio":        {ratio(float64(d["engine.parallel.inline"]), float64(d["engine.parallel.inline"]+d["engine.parallel.tasks"])), "ratio"},
		"engine.pin_retries_per_read":         {ratio(float64(d["engine.pin_retries"]), reads), "count"},
		"core.publish.pin_contended_per_read": {ratio(float64(d["core.publish.pin_contended"]), reads), "count"},
		"engine.commit.self_us":               {layers[spanCommit], "us"},
		"engine.index.incremental_per_commit": {ratio(float64(d["engine.index.incremental"]), commits), "count"},
		"wal.append.bytes_per_commit":         {ratio(float64(d["wal.append.bytes"]), commits), "bytes"},
		"wal.bytes_per_user_byte":             {ratio(float64(d["wal.append.bytes"]), float64(tracedSt.userBytes)), "ratio"},
		"wal.fsync_us":                        {ratio(float64(fsync.Sum-fsync0.Sum), float64(fsync.Count-fsync0.Count)) / 1000, "us"},
		"server.encode.self_us":               {layers[spanEncode], "us"},
		"server.wire_us":                      {quantileMs(served.readLat, 0.5)*1000 - untracedP50, "us"},
		"storage.open_s":                      {openS, "s"},
		"engine.index_build_s":                {indexS, "s"},
		"trace.overhead_us":                   {layers[spanRead] - untracedP50, "us"},
	}
	return res, nil
}

// spanMetrics is the median self time in µs per span name over the
// requests whose root started at or after fromNs; for the read root it
// is the median duration instead.
func spanMetrics(tracers []*tracer, fromNs int64) (map[spanName]float64, error) {
	byName := make(map[spanName][]time.Duration)
	for _, t := range tracers {
		self, err := selfTimes(t.spans)
		if err != nil {
			return nil, err
		}
		measured := false
		for i, s := range t.spans {
			if s.parent < 0 {
				measured = s.start >= fromNs
				if measured && s.name == spanRead {
					byName[spanRead] = append(byName[spanRead], time.Duration(s.end-s.start))
				}
				continue
			}
			if measured {
				byName[s.name] = append(byName[s.name], time.Duration(self[i]))
			}
		}
	}
	out := make(map[spanName]float64)
	for n, ds := range byName {
		out[n] = quantileMs(ds, 0.5) * 1000
	}
	return out, nil
}
