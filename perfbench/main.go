// Command perfbench is the repository's end-to-end benchmark. It
// generates a seeded personnel history, serves it with the shipped
// hrdm-server over TCP, drives one workload against it from this
// single process, checks the replies against the naive reference
// evaluator, and prints one JSON result line. With --trace 1 it instead
// replays the same request streams in process through the layers'
// public functions, records spans, and reports per-layer metrics.
//
// run.sh builds the binaries and runs it from the repository root:
//
//	bash perfbench/run.sh --workload point_lookup --seed 1 --seconds 10 --trace 0
//
// README.md describes the workloads, the metrics, and which end-to-end
// metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/storage"
)

// specs are the workloads; README.md gives the reasons for each.
var specs = map[string]spec{
	"point_lookup": {mix: pointMix, readers: 2, target: "HIRES", samples: 30},
	"range_report": {mix: rangeMix, readers: 2, target: "HIRES", samples: 6},
	"write_mix":    {mix: pointMix, readers: 1, target: "EMP", writerRate: writeMixRate},
}

const (
	// setupStarts is how many times a run starts the server; setup_s is
	// the median.
	setupStarts = 3
	// warmup runs the load unmeasured first, so the plan cache fills and
	// lazily built indexes exist before timing starts.
	warmup = time.Second
	// writeMixRate is write_mix's writer rate in groups per second.
	// README.md says how it was chosen.
	writeMixRate = 2
	// probeGroups is how many groups the commit probe of a read-only
	// load commits.
	probeGroups = 200
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "point_lookup, range_report or write_mix")
	seed := flag.Int64("seed", 1, "seed the data and the request streams are generated from")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: replay in process with spans and report per-layer metrics")
	serverBin := flag.String("server", ".bench_build/bin/hrdm-server", "hrdm-server binary")
	work := flag.String("work", ".bench_build/work", "directory for stores and traces")
	flag.Parse()
	sp, ok := specs[*name]
	if !ok || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload point_lookup|range_report|write_mix --seed N --seconds S --trace 0|1")
		return 2
	}
	b := &bench{
		start: time.Now(), name: *name, sp: sp, seed: *seed, measure: time.Duration(*seconds) * time.Second,
		serverBin: *serverBin, work: *work,
		dir: filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid())),
	}
	defer os.RemoveAll(b.dir)
	res, err := b.run(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	facts, err := json.Marshal(map[string]any{"facts": b.facts})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(facts))
	fmt.Println(string(line))
	if !res.Correct {
		return 3
	}
	return 0
}

type bench struct {
	start     time.Time
	name      string
	sp        spec
	seed      int64
	measure   time.Duration
	serverBin string
	work      string
	dir       string

	// tmpl is the durable store every phase starts from a copy of: a
	// checkpoint of the generated data with an empty log.
	tmpl  string
	facts map[string]any
}

// logf reports progress on stderr, stamped with the time since start.
func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %6.2fs: %s\n", time.Since(b.start).Seconds(), fmt.Sprintf(format, args...))
}

func (b *bench) run(traced bool) (result, error) {
	if err := os.MkdirAll(b.dir, 0o777); err != nil {
		return result{}, err
	}
	base := genStore(b.seed)
	b.tmpl = filepath.Join(b.dir, "template")
	st, _, err := storage.OpenDurable(b.tmpl)
	if err != nil {
		return result{}, err
	}
	for _, n := range base.Names() {
		r, _ := base.Get(n)
		st.Put(r)
	}
	if err := st.Close(); err != nil {
		return result{}, err
	}
	b.logf("generated %s and wrote its checkpoint", b.name)
	emp, _ := base.Get("EMP")
	empTuples := emp.Cardinality()
	// The generated data is dropped while the load runs, so this
	// process's garbage collector has little to scan and takes little CPU
	// from the server (or from the in-process replay); the checks
	// generate it again as their oracle.
	base, emp = nil, nil
	runtime.GC()
	b.facts = map[string]any{
		"workload": b.name, "seed": b.seed, "traced": traced, "run_seconds": b.measure.Seconds(),
		"host": map[string]any{
			"cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "os": runtime.GOOS + "/" + runtime.GOARCH,
		},
		"data": map[string]any{
			"emp_tuples": empTuples, "clock_chronons": clockLen, "max_tenure": maxTenure,
		},
		"flush_policy": "durable store (hrdm-server -open): every commit is fsynced to the WAL before it publishes",
		"readers":      b.sp.readers,
		"connections":  b.sp.conns(),
	}
	if b.sp.writerRate > 0 {
		b.facts["writer"] = map[string]any{
			"groups_per_s": b.sp.writerRate, "tuples_per_group": groupTuples, "relation": b.sp.target,
		}
	} else {
		b.facts["commit_probe"] = map[string]any{
			"groups": probeGroups, "tuples_per_group": groupTuples, "relation": b.sp.target,
		}
	}
	if traced {
		return b.traced()
	}
	return b.served()
}

// phaseDir copies the template store into a fresh directory.
func (b *bench) phaseDir(name string) (string, error) {
	dst := filepath.Join(b.dir, name)
	if err := os.MkdirAll(dst, 0o777); err != nil {
		return "", err
	}
	entries, err := os.ReadDir(b.tmpl)
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(b.tmpl, e.Name()))
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o600); err != nil {
			return "", err
		}
	}
	return dst, nil
}

func newWindow(measure time.Duration) window {
	start := time.Now()
	return window{start: start, from: start.Add(warmup), end: start.Add(warmup + measure)}
}

// serveLoad runs one load phase against the server at addr and samples
// the host's CPU times at the boundaries of the window's slices. It
// returns the load's stats and each slice's steal share. The load
// generator runs it on one P: it needs little CPU, and with fewer of its
// threads runnable the server gets the host's CPUs with less scheduling
// noise (on 2 CPUs this raised read_qps by about 8% and halved its
// run-to-run spread).
func (b *bench) serveLoad(addr string, measure time.Duration, gen *groupGen) (*roleStats, []float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	execs := make([]executor, b.sp.conns())
	for i := range execs {
		x := &tcpExec{addr: addr}
		defer x.close()
		execs[i] = x
	}
	win := newWindow(measure)
	marks := make(chan []cpuTimes, 1)
	go func() {
		ts := make([]cpuTimes, numSlices+1)
		for k := range ts {
			time.Sleep(time.Until(win.from.Add(measure * time.Duration(k) / numSlices)))
			ts[k] = readCPU()
		}
		marks <- ts
	}()
	st := merged(runPhase(b.sp, b.seed, gen, execs, win))
	ts := <-marks
	steal := make([]float64, numSlices)
	for k := range steal {
		steal[k] = ts[k+1].since(ts[k])["steal_share"]
	}
	b.facts["host_cpu"] = ts[numSlices].since(ts[0])
	return st, steal
}

// served is the measured run: setup, then the workload over TCP, then
// the correctness checks, including a crash and restart.
func (b *bench) served() (result, error) {
	dir, err := b.phaseDir("served")
	if err != nil {
		return result{}, err
	}
	var setups []float64
	var srv *serverProc
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	for i := 0; i < setupStarts; i++ {
		if srv != nil {
			srv.kill()
		}
		p, d, err := startServer(b.serverBin, dir)
		if err != nil {
			return result{}, err
		}
		srv = p
		setups = append(setups, d.Seconds())
		b.logf("server listening after %.3fs", d.Seconds())
	}

	gen := newGroupGen(b.seed)
	st, steal := b.serveLoad(srv.addr, b.measure, gen)
	rss, err := srv.peakRSS()
	if err != nil {
		return result{}, err
	}
	if b.sp.writerRate == 0 {
		x := &tcpExec{addr: srv.addr}
		st = merged([]*roleStats{st, probeCommits(x, b.sp.target, gen, probeGroups)})
		x.close()
	}
	b.logf("load done: %d reads, %d commits", st.reads, st.commits)

	res := b.tally(st)
	oracle := genStore(b.seed)
	x := &tcpExec{addr: srv.addr}
	ackText, checked, err := verify(x, oracle, b.sp, b.seed, st.acked, st.samples)
	b.facts["checked_replies"] = checked
	x.close()
	if err == nil {
		srv, err = b.crashRestart(srv, dir, ackText)
	}
	b.check(&res, err)
	b.logf("checks done")
	if srv != nil {
		err := srv.stop()
		srv = nil
		if err != nil {
			return result{}, err
		}
	}

	emp, _ := oracle.Get("EMP")
	b.facts["emp_tuples_end"] = emp.Cardinality()
	b.facts["setup_samples_s"] = setups
	sliceSecs := b.measure.Seconds() / numSlices
	p := func(q float64) func([]time.Duration) float64 {
		return func(ds []time.Duration) float64 { return quantileMs(ds, q) }
	}
	qps := func(ds []time.Duration) float64 {
		n := 0
		for _, d := range ds {
			if d != failedLatency {
				n++
			}
		}
		return float64(n) / sliceSecs
	}
	// Reads are timed per slice. Commits are not: the commit probe runs
	// after the window, and write_mix's few dozen are too few to split.
	readSlices := map[string][]float64{
		"read_p50_ms": perSlice(st.readAt, st.readLat, b.measure, p(0.50)),
		"read_p95_ms": perSlice(st.readAt, st.readLat, b.measure, p(0.95)),
		"read_p99_ms": perSlice(st.readAt, st.readLat, b.measure, p(0.99)),
		"read_qps":    perSlice(st.readAt, st.readLat, b.measure, qps),
	}
	quiet := quietest(steal)
	b.facts["read_slices"] = readSlices
	b.facts["slice_steal_share"] = steal
	b.facts["quiet_slices"] = quiet
	// Printed, not gated: README.md says why each is too unsteady, or
	// too often 0, to bound.
	ungated := map[string]metric{
		"read_p99_ms":   {median(pick(readSlices["read_p99_ms"], quiet)), "ms"},
		"commit_p50_ms": {quantileMs(st.commitLat, 0.50), "ms"},
		"commit_p99_ms": {quantileMs(st.commitLat, 0.99), "ms"},
		"error_ratio":   {ratio(float64(res.Failed), float64(res.Attempted)), "ratio"},
	}
	if b.sp.writerRate > 0 {
		ungated["writer_lag_ms"] = metric{quantileMs(st.lag, 0.99), "ms"}
	}
	b.facts["ungated"] = ungated
	res.Metrics = map[string]metric{
		"setup_s":     {median(setups), "s"},
		"read_p50_ms": {median(pick(readSlices["read_p50_ms"], quiet)), "ms"},
		"read_p95_ms": {median(pick(readSlices["read_p95_ms"], quiet)), "ms"},
		"read_qps":    {median(pick(readSlices["read_qps"], quiet)), "1/s"},
		"peak_rss_mb": {float64(rss) / (1 << 20), "MB"},
	}
	return res, nil
}

// crashRestart kills the server as a crash would, starts it again on
// the same directory, and checks that every acknowledged write came
// back from the log.
func (b *bench) crashRestart(srv *serverProc, dir, ackText string) (*serverProc, error) {
	srv.kill()
	srv, d, err := startServer(b.serverBin, dir)
	if err != nil {
		return nil, fmt.Errorf("restart after a crash: %w", err)
	}
	b.facts["restart_s"] = d.Seconds()
	x := &tcpExec{addr: srv.addr}
	defer x.close()
	_, text, err := x.read(ackQuery(b.sp.target), true)
	if err == nil && text != ackText {
		err = errors.New("acknowledged writes differ after a crash and restart")
	}
	return srv, err
}

// tally counts attempted and failed operations, reads and write groups
// alike, and records the counts among the facts.
func (b *bench) tally(st *roleStats) result {
	attempted := st.reads + st.commits + st.commitFails
	failed := st.readFails + st.commitFails
	b.facts["reads"] = st.reads
	b.facts["read_failures"] = st.readFails
	b.facts["commits"] = st.commits
	b.facts["commit_failures"] = st.commitFails
	b.facts["rows_per_read"] = ratio(float64(st.rows), float64(st.reads-st.readFails))
	return result{Correct: true, Attempted: attempted, Failed: failed}
}

func (b *bench) check(res *result, err error) {
	if err != nil {
		res.Correct = false
		b.facts["check_error"] = err.Error()
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:", err)
	}
}
