// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload against the program from a single process: either
// stmkv called directly, or kvserve behind a loopback HTTP listener.
// It checks every operation's result against per-worker oracles and
// prints the workload's metrics, with units, as the last line of its
// output.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload store-point --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of one untraced
// timed phase. With --trace 1 it runs the workload twice, untraced and
// then traced, and prints the per-layer metrics: counts from the
// program's public counters in the untraced phase, and span times
// from the traced phase. Spans are kept in memory and written to
// --spans when the run ends. Any failed operation or check makes the
// command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"

	"safepriv/internal/core"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: http-point, store-point or store-scan-churn")
		seed    = flag.Uint64("seed", 1, "seed the op streams and prefill are drawn from")
		seconds = flag.Int("seconds", 20, "length of each timed phase, in seconds")
		trace   = flag.Int("trace", 0, "1 = report per-layer metrics from an untraced and a traced phase")
		spans   = flag.String("spans", ".bench_build/spans", "directory the traced phase writes its spans to")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(w, *seed, *seconds, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line the command prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	record map[string]any // printed on the line before
	notes  []string       // printed as plain text first
}

func (r *result) set(name string, v float64) {
	u, ok := metricUnits[name]
	if !ok {
		panic("perfbench: metric without a declared unit: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: u}
}

func (r *result) print(out io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(out, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-34s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	rec, err := json.Marshal(map[string]any{"record": r.record})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(rec))
	last, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(last))
	return err
}

// metricUnits declares every metric the command can print, with its
// unit. BENCHMARK.json lists the same names (bench_json_test.go
// checks it).
var metricUnits = map[string]string{
	// End to end, --trace 0.
	"ops_per_s": "1/s",
	"op_p50_us": "us",
	"op_p99_us": "us",
	"setup_s":   "s",
	"mem_mb":    "MB",

	// Per layer, --trace 1.
	"op.p999_us":                   "us",
	"op.samples":                   "count",
	"op.span_us_per_op":            "us",
	"trace.untraced_ops_per_s":     "1/s",
	"trace.traced_ops_per_s":       "1/s",
	"trace.overhead_pct":           "%",
	"trace.sampled_ops":            "count",
	"nethttp.wire_p50_us":          "us",
	"kvserve.handler_p50_us":       "us",
	"kvserve.handler_p99_us":       "us",
	"go.allocs_per_op":             "count",
	"go.gc_cpu_frac":               "ratio",
	"stmkv.get_p50_us":             "us",
	"stmkv.put_p50_us":             "us",
	"stmkv.delete_p50_us":          "us",
	"stmkv.self_us_per_op":         "us",
	"stmkv.scanpage_p50_us":        "us",
	"stmkv.scanpage_p99_us":        "us",
	"stmkv.privatizations_per_kop": "1/kop",
	"stmkv.grows":                  "count",
	"stmkv.scan_windows_per_page":  "count",
	"core.attempts_per_op":         "ratio",
	"core.backoff_us_per_kop":      "us/kop",
	"tl2.txn_p50_us":               "us",
	"tl2.reads_per_txn":            "count",
	"tl2.writes_per_txn":           "count",
	"tl2.self_us_per_op":           "us",
	"quiesce.fences_per_kop":       "1/kop",
	"quiesce.fence_p50_us":         "us",
	"quiesce.fence_p99_us":         "us",
	"quiesce.fence_wait_share":     "ratio",
	"quiesce.grace_periods":        "1/kop",
	"quiesce.self_us_per_op":       "us",
	"stmalloc.footprint_regs":      "regs",
	"stmalloc.regs_per_key":        "regs",
	"stmalloc.allocs":              "count",
	"stmalloc.frees":               "count",
}

// run drives one workload: set-up (repeated for setup_s), the timed
// phase(s), the final verification, and the metrics.
func run(w workload, seed uint64, seconds int, traced bool, spanDir string) (*result, error) {
	clk := newClock()
	streams, prefill := w.streams(seed)
	res := &result{Metrics: map[string]metric{}}
	var t tally

	// The untraced phase runs in both modes; only --trace 0 reports
	// setup_s, so only it builds more than once.
	setups := setupsPerRun
	if traced {
		setups = 1
	}
	u, setupTimes, err := runPhase(w, streams, prefill, clk, seconds, setups, false, &t)
	if err != nil {
		return nil, err
	}

	res.record = map[string]any{
		"workload": w, "seed": seed, "seconds": seconds, "trace": traced, "setups": setups,
		"host":            hostBlock(),
		"setup_s_each":    setupTimes,
		"ops_per_s_each":  u.windows,
		"op_p50_ns_each":  u.p50s,
		"op_p99_ns_each":  u.p99s,
		"op_samples":      u.point.n,
		"op_p50_us_all":   u.point.quantile(0.5) / 1e3,
		"op_p99_us_all":   u.point.quantile(0.99) / 1e3,
		"op_p999_us_all":  u.point.quantile(0.999) / 1e3,
		"scan_pages":      u.scan.n,
		"scan_p50_us_all": u.scan.quantile(0.5) / 1e3,
	}
	if !traced {
		res.set("ops_per_s", u.opsPerSec)
		res.set("op_p50_us", u.p50/1e3)
		res.set("op_p99_us", u.p99/1e3)
		res.set("setup_s", median(setupTimes))
		res.set("mem_mb", float64(u.memBytes)/(1<<20))
	} else {
		tr, _, err := runPhase(w, streams, prefill, clk, seconds, 1, true, &t)
		if err != nil {
			return nil, err
		}
		layerMetrics(res, w, &u, &tr, &t)
		// One file per workload: a later traced run replaces it.
		path := filepath.Join(spanDir, w.Name+".tsv")
		if err := writeSpans(path, append(tr.logs, tr.handlers)); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		res.notes = append(res.notes, fmt.Sprintf("spans of seed %d written to %s", seed, path))
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0 && t.attempted > 0
	failRatio := float64(t.failed) / float64(max(t.attempted, 1))
	res.record["fail_ratio"] = failRatio
	res.notes = append(res.notes, fmt.Sprintf("fail_ratio %g: %d of %d ops and checks failed",
		failRatio, t.failed, t.attempted))
	for _, e := range t.errs {
		res.notes = append(res.notes, "FAIL: "+e)
	}
	return res, nil
}

// runPhase builds the system setups times (keeping the last), runs the
// timed phase, verifies the final state and tears the system down. A
// traced phase builds the store over a TracedTM, or puts a
// handlerTracer in front of kvserve.
func runPhase(w workload, streams [][]op, prefill [][]int64, clk *clock, seconds, setups int,
	traced bool, t *tally) (phase, []float64, error) {
	var (
		sys      system
		workers  []*worker
		times    []float64
		handlers *handlerTracer
	)
	newSys := func() (system, error) {
		if w.HTTP {
			if traced {
				handlers = &handlerTracer{clk: clk, log: newSpanLog(spanCap)}
				return newHTTPSys(w, handlers)
			}
			return newHTTPSys(w, nil)
		}
		var wrap func(core.TM) *TracedTM
		if traced {
			wrap = func(tm core.TM) *TracedTM { return newTracedTM(tm, w.Workers+1, clk) }
		}
		return newStoreSys(w, wrap)
	}
	for i := 0; i < setups; i++ {
		if sys != nil {
			finish(sys, workers, t, false)
		}
		var took float64
		var err error
		if sys, workers, took, err = build(w, streams, prefill, clk, newSys); err != nil {
			return phase{}, nil, err
		}
		times = append(times, took)
	}
	if traced {
		for _, wk := range workers {
			wk.log = newSpanLog(spanCap)
			if s, ok := sys.(*storeSys); ok {
				s.tt.attach(wk.th, wk.log)
			}
		}
	}
	p := measure(sys, workers, clk, seconds, w.TraceEvery)
	if handlers != nil {
		p.handlers = handlers.log
	}
	for _, wk := range workers {
		p.live += wk.or.live()
	}
	finish(sys, workers, t, true)
	// Everything the benchmark holds stays live; only the system goes.
	sys = nil
	if live := liveHeap(); p.liveEnd > live {
		p.memBytes = p.liveEnd - live
	}
	runtime.KeepAlive(workers)
	return p, times, nil
}

// setupsPerRun is how many times a --trace 0 run builds the system:
// setup_s is the median, and the last build is the one measured.
const setupsPerRun = 9

// spanCap bounds each span log (about 20 MiB). A sampled op starts
// only with spanHeadroom spans of room left, enough for its own span
// and its children's.
const (
	spanCap      = 1 << 19
	spanHeadroom = 1 << 10
)

// finish optionally verifies the final state, tears the system down and
// adds the workers' tallies to t.
func finish(sys system, workers []*worker, t *tally, verify bool) {
	oracles := make([]*oracle, len(workers))
	for i, wk := range workers {
		t.add(&wk.tally)
		oracles[i] = wk.or
	}
	if verify {
		sys.verify(t, oracles)
	}
	if err := sys.close(); err != nil {
		t.fail("shutdown: %v", err)
	}
}

// layerMetrics derives the per-layer metrics: counts from the untraced
// phase u, spans from the traced phase tr. Spans that cannot be
// accounted for fail the run in t: a dropped span, a child span with
// no op span, or a child span that is not inside its op span or
// overlaps a sibling (then op self time plus child time is not the op
// span time).
func layerMetrics(res *result, w workload, u, tr *phase, t *tally) {
	ops := float64(u.ops)
	perKop := func(x int64) float64 { return float64(x) * 1000 / ops }
	tel := u.c1.tel.Delta(u.c0.tel)
	res.set("op.p999_us", u.point.quantile(0.999)/1e3)
	res.set("op.samples", float64(u.point.n))
	res.set("trace.untraced_ops_per_s", u.opsPerSec)
	res.set("trace.traced_ops_per_s", tr.opsPerSec)
	res.set("trace.overhead_pct", 100*(1-tr.opsPerSec/u.opsPerSec))
	res.set("go.allocs_per_op", float64(u.r1.allocs-u.r0.allocs)/ops)
	res.set("go.gc_cpu_frac", (u.r1.gcCPU-u.r0.gcCPU)/(u.r1.allCPU-u.r0.allCPU))
	res.set("stmkv.privatizations_per_kop", perKop(u.c1.store.Privatizations-u.c0.store.Privatizations))
	res.set("stmkv.grows", float64(u.c1.store.Grows))
	res.set("stmkv.scan_windows_per_page",
		float64(u.c1.store.ScanWindows-u.c0.store.ScanWindows)/float64(max(u.scan.n, 1)))
	res.set("core.attempts_per_op", float64(tel.Commits+tel.Aborts)/float64(tel.Commits))
	res.set("core.backoff_us_per_kop", perKop(tel.BackoffNs)/1e3)
	res.set("quiesce.fences_per_kop", perKop(tel.Fences))
	res.set("quiesce.fence_wait_share", float64(tel.FenceWaitNs)/float64(int64(w.Workers)*u.elapsedNs))
	res.set("quiesce.grace_periods", perKop(int64(u.c1.qs.GracePeriods-u.c0.qs.GracePeriods)))
	res.set("stmalloc.footprint_regs", float64(u.c1.heap.BumpRegs))
	res.set("stmalloc.regs_per_key", float64(u.c1.heap.BumpRegs)/float64(max(u.live, 1)))
	res.set("stmalloc.allocs", float64(u.c1.heap.Allocs))
	res.set("stmalloc.frees", float64(u.c1.heap.Frees))

	st := analyze(tr.logs, tr.handlers)
	n := float64(max(st.ops, 1))
	us := func(ns float64) float64 { return ns / 1e3 }
	res.set("trace.sampled_ops", float64(st.ops))
	res.set("op.span_us_per_op", us(float64(st.opNs)/n))
	res.set("tl2.txn_p50_us", us(st.txnHist.quantile(0.5)))
	res.set("tl2.reads_per_txn", float64(st.reads)/float64(max(st.txns, 1)))
	res.set("tl2.writes_per_txn", float64(st.writes)/float64(max(st.txns, 1)))
	res.set("tl2.self_us_per_op", us(float64(st.txnNs)/n))
	res.set("quiesce.fence_p50_us", us(st.fenceHist.quantile(0.5)))
	res.set("quiesce.fence_p99_us", us(st.fenceHist.quantile(0.99)))
	res.set("quiesce.self_us_per_op", us(float64(st.fenceNs)/n))
	res.set("kvserve.handler_p50_us", us(st.hdlHist.quantile(0.5)))
	res.set("kvserve.handler_p99_us", us(st.hdlHist.quantile(0.99)))
	res.set("nethttp.wire_p50_us", us(st.wireHist.quantile(0.5)))
	if w.HTTP {
		// The op span is an HTTP round trip: its self time is the wire
		// and client, not stmkv.
		for _, m := range []string{"stmkv.get_p50_us", "stmkv.put_p50_us", "stmkv.delete_p50_us",
			"stmkv.self_us_per_op", "stmkv.scanpage_p50_us", "stmkv.scanpage_p99_us"} {
			res.set(m, 0)
		}
	} else {
		res.set("stmkv.get_p50_us", us(st.opHist[opGet].quantile(0.5)))
		res.set("stmkv.put_p50_us", us(st.opHist[opPut].quantile(0.5)))
		res.set("stmkv.delete_p50_us", us(st.opHist[opDelete].quantile(0.5)))
		res.set("stmkv.scanpage_p50_us", us(st.opHist[opScan].quantile(0.5)))
		res.set("stmkv.scanpage_p99_us", us(st.opHist[opScan].quantile(0.99)))
		res.set("stmkv.self_us_per_op", us(float64(st.opSelfNs)/n))
	}
	sum := st.opSelfNs + st.txnNs + st.fenceNs + st.handlerNs
	res.notes = append(res.notes, fmt.Sprintf(
		"trace: %d sampled ops; op span %d ns = self %d + tl2.txn %d + quiesce.fence %d + kvserve.handler %d (sum %d ns)",
		st.ops, st.opNs, st.opSelfNs, st.txnNs, st.fenceNs, st.handlerNs, sum))
	t.attempted++
	switch {
	case st.ops == 0:
		t.fail("trace: no op was sampled")
	case st.truncated > 0:
		t.fail("trace: %d spans dropped at the span log's capacity", st.truncated)
	case st.unmatchedChildren > 0:
		t.fail("trace: %d child spans belong to no sampled op", st.unmatchedChildren)
	case st.misplaced > 0 || sum != st.opNs:
		t.fail("trace: %d child spans outside their op span or overlapping a sibling; self + children = %d ns, op spans %d ns",
			st.misplaced, sum, st.opNs)
	}
	res.record["trace_self_sum_ns"] = sum
	res.record["trace_op_span_ns"] = st.opNs
}

// hostBlock describes where the run happened and what it ran.
func hostBlock() map[string]any {
	h := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"git_rev":    "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h["git_rev"] = s.Value
			case "vcs.modified":
				h["git_modified"] = s.Value
			}
		}
	}
	return h
}
