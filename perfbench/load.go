package main

import (
	"sync"
	"time"
)

// executor carries one role's requests to the system under test: over a
// TCP connection to hrdm-server, or in process through an
// engine.Session. The load loops below drive both the same way.
type executor interface {
	// read runs one query and returns its row count; with keep it also
	// returns the rendered result for the correctness check.
	read(q string, keep bool) (rows int, text string, err error)
	// commitGroup stages specs into rel as one write group and commits.
	commitGroup(rel string, specs []string) error
}

// spec is what one run of a workload does.
type spec struct {
	mix readMix
	// readers is the number of closed-loop readers, each on its own
	// connection.
	readers int
	// target is the relation write groups commit into: during the load
	// at writerRate groups per second on a connection of the writer's
	// own, or, when writerRate is 0, in the commit probe after it.
	target     string
	writerRate int
	// samples is how many replies each reader keeps, spread evenly over
	// the measured window, for the oracle check. Sampling in the window
	// needs a load that does not write the relation being read.
	samples int
}

// conns is the number of connections, and of in-process roles, the
// load uses.
func (sp spec) conns() int {
	if sp.writerRate > 0 {
		return sp.readers + 1
	}
	return sp.readers
}

// window bounds one load phase: everything runs from start to end, and
// only requests started (or, for writes, due) at or after from count.
type window struct {
	start, from, end time.Time
}

func (w window) measured(t time.Time) bool { return !t.Before(w.from) }

type sample struct {
	q    string
	rows int
	text string
}

// roleStats is what one role saw in the measured part of a phase.
type roleStats struct {
	readLat   []time.Duration
	readAt    []time.Duration // start of each read, from the window's from
	reads     int
	readFails int
	rows      int64

	commitLat   []time.Duration
	lag         []time.Duration
	commits     int
	commitFails int
	userBytes   int64

	// acked holds every acknowledged group, warm-up included, in
	// commit order.
	acked   [][]string
	samples []sample
}

// writer is the open-loop write stream: one group due every period from
// the window's start, each timed from when it was due.
type writer struct {
	ex     executor
	rel    string
	gen    *groupGen
	win    window
	period time.Duration
	due    time.Time
	st     *roleStats
}

// loop commits each group when it comes due, until the window ends.
// A group that comes due while the previous one is still committing
// goes out late, and its latency counts the wait.
func (w *writer) loop() {
	for w.due.Before(w.win.end) {
		time.Sleep(time.Until(w.due))
		w.commitOne()
	}
}

// probeCommits is the commit probe of the workloads whose load only
// reads: n groups committed one after another on ex once the load has
// stopped, each timed from its begin_group to the commit reply.
func probeCommits(ex executor, rel string, gen *groupGen, n int) *roleStats {
	st := &roleStats{}
	w := &writer{ex: ex, rel: rel, gen: gen, st: st}
	for i := 0; i < n; i++ {
		w.due = time.Now()
		w.commitOne()
	}
	return st
}

func (w *writer) commitOne() {
	due := w.due
	w.due = w.due.Add(w.period)
	specs := w.gen.next()
	started := time.Now()
	err := w.ex.commitGroup(w.rel, specs)
	done := time.Now()
	measured := w.win.measured(due)
	if err != nil {
		if measured {
			w.st.commitFails++
		}
		return
	}
	w.st.acked = append(w.st.acked, specs)
	if measured {
		w.st.commits++
		w.st.commitLat = append(w.st.commitLat, done.Sub(due))
		w.st.lag = append(w.st.lag, started.Sub(due))
		for _, s := range specs {
			w.st.userBytes += int64(len(s))
		}
	}
}

// failedLatency stands in for the latency of a failed read: a failure
// misses any latency limit.
const failedLatency = time.Minute

// readLoop is one closed-loop reader: the next query goes out when the
// previous reply is in.
func readLoop(ex executor, gen *queryGen, win window, sp spec, st *roleStats) {
	var every time.Duration
	if sp.samples > 0 {
		every = win.end.Sub(win.from) / time.Duration(sp.samples)
	}
	nextKeep := win.from
	for {
		now := time.Now()
		if !now.Before(win.end) {
			return
		}
		q := gen.next()
		measured := win.measured(now)
		keep := every > 0 && measured && !now.Before(nextKeep)
		if keep {
			nextKeep = nextKeep.Add(every)
		}
		t0 := time.Now()
		rows, text, err := ex.read(q, keep)
		d := time.Since(t0)
		if measured {
			st.reads++
			st.readAt = append(st.readAt, t0.Sub(win.from))
			if err != nil {
				st.readFails++
				st.readLat = append(st.readLat, failedLatency)
			} else {
				st.readLat = append(st.readLat, d)
				st.rows += int64(rows)
			}
		}
		if keep && err == nil {
			st.samples = append(st.samples, sample{q: q, rows: rows, text: text})
		}
	}
}

// runPhase drives one workload phase over execs: sp.readers readers,
// then the writer when sp.writerRate is above 0, each on its own
// goroutine with its own executor. It returns when all have finished,
// with the readers' stats first. Role r's query stream is
// newQueryGen(seed, r), so every phase replays the same reads from the
// start; groups come from gen, which phases over one store share so
// that new keys stay new.
func runPhase(sp spec, seed int64, gen *groupGen, execs []executor, win window) []*roleStats {
	stats := make([]*roleStats, sp.conns())
	for i := range stats {
		stats[i] = &roleStats{}
	}
	var wg sync.WaitGroup
	for r := 0; r < sp.readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			readLoop(execs[r], newQueryGen(seed, r, sp.mix), win, sp, stats[r])
		}(r)
	}
	if sp.writerRate > 0 {
		w := &writer{
			ex: execs[sp.readers], rel: sp.target, gen: gen, win: win,
			period: time.Second / time.Duration(sp.writerRate), due: win.start, st: stats[sp.readers],
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop()
		}()
	}
	wg.Wait()
	return stats
}

// merged folds the roles' stats into one.
func merged(stats []*roleStats) *roleStats {
	m := &roleStats{}
	for _, s := range stats {
		m.readLat = append(m.readLat, s.readLat...)
		m.readAt = append(m.readAt, s.readAt...)
		m.reads += s.reads
		m.readFails += s.readFails
		m.rows += s.rows
		m.commitLat = append(m.commitLat, s.commitLat...)
		m.lag = append(m.lag, s.lag...)
		m.commits += s.commits
		m.commitFails += s.commitFails
		m.userBytes += s.userBytes
		m.acked = append(m.acked, s.acked...)
		m.samples = append(m.samples, s.samples...)
	}
	return m
}
