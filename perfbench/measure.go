package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
)

// worker is one closed-loop caller: it issues its next op only after
// the previous one returned.
type worker struct {
	idx    int
	th     int // TM thread id (store workloads)
	ops    []op
	pos    int
	seq    uint64
	or     *oracle
	cursor string
	buf    bytes.Buffer
	tally  tally

	// Timed-phase recording: point-op latency per window, scan pages
	// per window, and all scan-page latencies.
	point    []hist
	scans    []int64
	scanHist hist
	log      *spanLog // traced phase only
}

func (wk *worker) next() op {
	o := wk.ops[wk.pos]
	if wk.pos++; wk.pos == len(wk.ops) {
		wk.pos = 0
	}
	return o
}

// run executes ops until the first one that ends at or after deadline.
// Every op is timed; in a traced phase one op in traceEvery also gets
// an op span, and its program-side spans are linked to it. Sampling
// stops once the span log has less than spanHeadroom spans of room, so
// a long run keeps the spans of its first sampled ops whole instead of
// dropping some.
func (wk *worker) run(sys system, clk *clock, start, deadline int64, traceEvery uint64) {
	last := len(wk.point) - 1
	for {
		o := wk.next()
		wk.seq++
		var id uint64
		if wk.log != nil && wk.seq%traceEvery == 0 && wk.log.room() >= spanHeadroom {
			id = opID(wk.idx, wk.seq)
		}
		t0 := clk.now()
		sys.exec(wk, o, id)
		t1 := clk.now()
		if id != 0 {
			wk.log.add(span{op: id, start: t0, end: t1, kind: spanOp, opKind: o.kind})
		}
		win := min(int((t1-start)/winNs), last)
		if o.kind == opScan {
			wk.scans[win]++
			wk.scanHist.record(t1 - t0)
		} else {
			wk.point[win].record(t1 - t0)
		}
		if t1 >= deadline {
			return
		}
	}
}

// Timed phases are cut into windows of winNs. Throughput and latency
// quantiles are computed per window and reported as the median window,
// so a short stall elsewhere on the host moves one window, not the
// result.
const (
	winPerSec = 4
	winNs     = 1e9 / winPerSec
)

// runtimeSample is the Go runtime's view at one instant.
type runtimeSample struct {
	allocs        uint64  // heap objects allocated, cumulative
	gcCPU, allCPU float64 // CPU seconds, cumulative
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	value := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocs: uint64(value(0)), gcCPU: value(1), allCPU: value(2)}
}

// liveHeap returns the live heap bytes after two forced GCs: the
// second also frees what the first moved to sync.Pool victim caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// phase is one timed run of the workload over one built system.
type phase struct {
	windows   []float64 // ops per second in each window
	opsPerSec float64   // median window
	p50s      []float64 // each window's point-op p50 (ns)
	p99s      []float64 // each window's point-op p99 (ns)
	p50, p99  float64   // median over windows
	point     hist      // every point-op latency of the phase
	scan      hist      // every scan-page latency of the phase
	ops       int64
	elapsedNs int64
	live      int64  // keys present at the end
	liveEnd   uint64 // live heap at the end of the timed phase
	memBytes  uint64 // liveEnd minus the live heap once the system is torn down
	c0, c1    counters
	r0, r1    runtimeSample
	logs      []*spanLog // the workers' span logs (traced phase)
	handlers  *spanLog   // kvserve.handler spans (traced http-point)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// measure runs every worker for seconds and summarizes the phase.
func measure(sys system, workers []*worker, clk *clock, seconds int, traceEvery int) phase {
	for _, wk := range workers {
		wk.point = make([]hist, seconds*winPerSec)
		wk.scans = make([]int64, seconds*winPerSec)
	}
	var p phase
	p.c0, p.r0 = sys.counters(), readRuntime()
	start := clk.now()
	deadline := start + int64(seconds)*1e9
	var wg sync.WaitGroup
	for _, wk := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk.run(sys, clk, start, deadline, uint64(traceEvery))
		}()
	}
	wg.Wait()
	p.elapsedNs = clk.now() - start
	p.c1, p.r1 = sys.counters(), readRuntime()

	nwin := seconds * winPerSec
	for win := 0; win < nwin; win++ {
		var h hist
		var n int64
		for _, wk := range workers {
			h.merge(&wk.point[win])
			n += int64(wk.point[win].n) + wk.scans[win]
		}
		p.point.merge(&h)
		p.ops += n
		p.windows = append(p.windows, float64(n)*winPerSec)
		p.p50s = append(p.p50s, h.quantile(0.50))
		p.p99s = append(p.p99s, h.quantile(0.99))
	}
	// The last window runs until the slowest worker's final op ends.
	if over := float64(p.elapsedNs-int64(nwin-1)*winNs) / winNs; over > 1 {
		p.windows[nwin-1] /= over
	}
	p.opsPerSec = median(p.windows)
	p.p50, p.p99 = median(p.p50s), median(p.p99s)
	for _, wk := range workers {
		p.scan.merge(&wk.scanHist)
		if wk.log != nil {
			p.logs = append(p.logs, wk.log)
		}
	}
	p.liveEnd = liveHeap()
	return p
}

// build constructs the system, prefills it and warms it up, all
// through fresh workers and oracles. The returned duration is the
// set-up time.
func build(w workload, streams [][]op, prefill [][]int64, clk *clock,
	newSys func() (system, error)) (system, []*worker, float64, error) {
	start := clk.now()
	sys, err := newSys()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("build %s: %w", w.Name, err)
	}
	workers := make([]*worker, w.Workers)
	for i := range workers {
		workers[i] = &worker{idx: i, th: i + 1, ops: streams[i], or: newOracle(i, w.Workers, w.Keys)}
	}
	var wg sync.WaitGroup
	for _, wk := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, key := range prefill[wk.idx] {
				sys.exec(wk, op{key: int32(key), kind: opPut}, 0)
			}
			for range w.Warmup {
				sys.exec(wk, wk.next(), 0)
			}
		}()
	}
	wg.Wait()
	return sys, workers, float64(clk.now()-start) / 1e9, nil
}
