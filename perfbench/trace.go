package main

import (
	"bufio"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"safepriv/internal/core"
	"safepriv/internal/telemetry"
)

// Span kinds. An op span wraps one benchmark call into the program
// (stmkv.Store or http.Client.Do); the other kinds are its children,
// linked to it by the op id.
const (
	spanOp uint8 = iota
	spanTxn
	spanFence
	spanHandler
)

var spanNames = [...]string{"op", "tl2.txn", "quiesce.fence", "kvserve.handler"}

// clock reads monotonic nanoseconds since a fixed epoch: time.Since on
// a monotonic Time is a single runtime clock read.
type clock struct{ epoch time.Time }

func newClock() *clock { return &clock{epoch: time.Now()} }

func (c *clock) now() int64 { return int64(time.Since(c.epoch)) }

// span is one timed interval. For op spans, opKind says which call it
// was; for txn spans, reads and writes count the attempt's accesses.
type span struct {
	op            uint64
	start, end    int64
	reads, writes uint32
	kind, opKind  uint8
}

// spanLog is an append-only span buffer with a fixed capacity, so
// recording never allocates; spans past the capacity are counted and
// dropped.
type spanLog struct {
	spans   []span
	dropped int64
}

func newSpanLog(capacity int) *spanLog { return &spanLog{spans: make([]span, 0, capacity)} }

func (l *spanLog) add(s span) {
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return
	}
	l.spans = append(l.spans, s)
}

func (l *spanLog) room() int { return cap(l.spans) - len(l.spans) }

// opID packs a worker index and that worker's op sequence number.
func opID(worker int, seq uint64) uint64 { return uint64(worker)<<48 | seq }

// TracedTM is a core.TM decorator that records a tl2.txn span per
// transaction attempt and a quiesce.fence span per Fence, for the
// thread ids the benchmark has marked as inside a sampled op. A thread
// id is used by one goroutine at a time (the core.TM contract), so
// per-thread state needs no locking. Threads outside a sampled op go
// straight to the inner TM.
//
// It forwards telemetry.Provider and core.BatchFencer: core.Atomically,
// stmkv.New and stmalloc.New type-assert those, and without them
// tracing would drop the telemetry counters and turn Clear/Resize's
// one shared grace period into one per shard. FenceAsync and
// FenceAsyncBatch are forwarded untimed: with a synchronous fence mode
// their callbacks run inline, so a span around them would time the
// callback's store work as fence time. The benchmark's workloads do
// not call them.
type TracedTM struct {
	inner   core.TM
	clk     *clock
	threads []traceThread
}

type traceThread struct {
	on  bool
	op  uint64
	log *spanLog
	tx  tracedTxn
	_   [64]byte // keep threads' states off each other's cache lines
}

var (
	_ core.TM            = (*TracedTM)(nil)
	_ core.BatchFencer   = (*TracedTM)(nil)
	_ telemetry.Provider = (*TracedTM)(nil)
)

// newTracedTM wraps inner for thread ids 0..maxThread.
func newTracedTM(inner core.TM, maxThread int, clk *clock) *TracedTM {
	t := &TracedTM{inner: inner, clk: clk, threads: make([]traceThread, maxThread+1)}
	for i := range t.threads {
		t.threads[i].tx.owner = t
		t.threads[i].tx.th = &t.threads[i]
	}
	return t
}

// attach makes log the destination of thread th's spans.
func (t *TracedTM) attach(th int, log *spanLog) { t.threads[th].log = log }

// beginOp links the transactions and fences thread th runs from now
// until endOp to the op span op.
func (t *TracedTM) beginOp(th int, op uint64) {
	s := &t.threads[th]
	s.on, s.op = s.log != nil, op
}

func (t *TracedTM) endOp(th int) { t.threads[th].on = false }

func (t *TracedTM) NumRegs() int { return t.inner.NumRegs() }

func (t *TracedTM) Begin(thread int) core.Txn {
	s := &t.threads[thread]
	if !s.on {
		return t.inner.Begin(thread)
	}
	tx := &s.tx
	tx.start = t.clk.now()
	tx.inner = t.inner.Begin(thread)
	tx.reads, tx.writes, tx.done = 0, 0, false
	return tx
}

func (t *TracedTM) Fence(thread int) {
	s := &t.threads[thread]
	if !s.on {
		t.inner.Fence(thread)
		return
	}
	start := t.clk.now()
	t.inner.Fence(thread)
	s.log.add(span{op: s.op, start: start, end: t.clk.now(), kind: spanFence})
}

func (t *TracedTM) FenceAsync(thread int, fn func(thread int)) { t.inner.FenceAsync(thread, fn) }

func (t *TracedTM) FenceAsyncBatch(thread int, fns []func(thread int)) {
	core.FenceAsyncBatch(t.inner, thread, fns)
}

func (t *TracedTM) FenceBarrier(thread int)      { t.inner.FenceBarrier(thread) }
func (t *TracedTM) Load(thread, x int) int64     { return t.inner.Load(thread, x) }
func (t *TracedTM) Store(thread, x int, v int64) { t.inner.Store(thread, x, v) }
func (t *TracedTM) TelemetryBoard() *telemetry.Board {
	if p, ok := t.inner.(telemetry.Provider); ok {
		return p.TelemetryBoard()
	}
	return nil
}

// tracedTxn is one thread's reusable transaction wrapper. The attempt's
// span ends at Commit, at Abort, or at the first ErrAborted, whichever
// comes first.
type tracedTxn struct {
	owner         *TracedTM
	th            *traceThread
	inner         core.Txn
	start         int64
	reads, writes uint32
	done          bool
}

func (x *tracedTxn) finish() {
	if x.done {
		return
	}
	x.done = true
	x.th.log.add(span{op: x.th.op, start: x.start, end: x.owner.clk.now(),
		reads: x.reads, writes: x.writes, kind: spanTxn})
}

func (x *tracedTxn) Read(r int) (int64, error) {
	x.reads++
	v, err := x.inner.Read(r)
	if err != nil && errors.Is(err, core.ErrAborted) {
		x.finish()
	}
	return v, err
}

func (x *tracedTxn) Write(r int, v int64) error {
	x.writes++
	err := x.inner.Write(r, v)
	if err != nil && errors.Is(err, core.ErrAborted) {
		x.finish()
	}
	return err
}

func (x *tracedTxn) Commit() error {
	err := x.inner.Commit()
	x.finish()
	return err
}

func (x *tracedTxn) Abort() {
	x.inner.Abort()
	x.finish()
}

// opHeader carries the op id from the benchmark's HTTP client to the
// handler middleware, so the handler span can name its parent.
const opHeader = "X-Bench-Op"

// handlerTracer is the middleware around kvserve's handler: it records
// a kvserve.handler span for every request that carries opHeader.
type handlerTracer struct {
	clk  *clock
	next http.Handler
	mu   sync.Mutex
	log  *spanLog
}

func (h *handlerTracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(opHeader)
	if id == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	start := h.clk.now()
	h.next.ServeHTTP(w, r)
	end := h.clk.now()
	op, err := strconv.ParseUint(id, 10, 64)
	if err != nil {
		return
	}
	h.mu.Lock()
	h.log.add(span{op: op, start: start, end: end, kind: spanHandler})
	h.mu.Unlock()
}

// spanStats is what the traced phase derives from its spans.
type spanStats struct {
	ops                          int64 // sampled op spans
	opNs, opSelfNs               int64 // summed op span time and op self time
	txnNs, fenceNs, handlerNs    int64 // summed child span time (children have no children)
	txns, reads, writes          int64
	opHist                       [numOpKinds]hist
	txnHist, fenceHist, hdlHist  hist
	wireHist                     hist // op span minus its handler span
	unmatchedChildren, truncated int64
	misplaced                    int64 // children outside their op span or overlapping a sibling
}

// analyze links children to their op spans and computes self times.
// A worker log holds each op's txn and fence spans before the op span
// itself (they end first); handler spans come from the shared
// middleware log and are matched by op id.
func analyze(workerLogs []*spanLog, handlers *spanLog) spanStats {
	var st spanStats
	byOp := map[uint64]span{}
	if handlers != nil {
		for _, s := range handlers.spans {
			byOp[s.op] = s
		}
		st.truncated += handlers.dropped
	}
	var kids []span
	for _, l := range workerLogs {
		st.truncated += l.dropped
		kids = kids[:0]
		for _, s := range l.spans {
			if s.kind != spanOp {
				kids = append(kids, s)
				continue
			}
			if h, ok := byOp[s.op]; ok {
				kids = append(kids, h)
				delete(byOp, s.op)
			}
			st.addOp(s, kids)
			kids = kids[:0]
		}
		st.unmatchedChildren += int64(len(kids))
	}
	st.unmatchedChildren += int64(len(byOp))
	return st
}

func (st *spanStats) addOp(op span, kids []span) {
	dur := op.end - op.start
	st.ops++
	st.opNs += dur
	st.opHist[op.opKind].record(dur)
	covered := int64(0)
	last := op.start // children are appended in end order and must not overlap
	for _, k := range kids {
		if k.op != op.op {
			st.unmatchedChildren++
			continue
		}
		d := k.end - k.start
		switch k.kind {
		case spanTxn:
			st.txns++
			st.txnNs += d
			st.reads += int64(k.reads)
			st.writes += int64(k.writes)
			st.txnHist.record(d)
		case spanFence:
			st.fenceNs += d
			st.fenceHist.record(d)
		case spanHandler:
			st.handlerNs += d
			st.hdlHist.record(d)
			st.wireHist.record(dur - d)
		}
		if k.start < last || k.end > op.end {
			st.misplaced++
		}
		lo, hi := max(k.start, last), min(k.end, op.end)
		if hi > lo {
			covered += hi - lo
			last = hi
		}
	}
	st.opSelfNs += dur - covered
}

// writeSpans writes every kept span as one tab-separated line:
// op id, kind, start and end (ns since the run's clock epoch), and the
// txn read and write counts.
func writeSpans(path string, logs []*spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tkind\top_kind\tstart_ns\tend_ns\treads\twrites")
	for _, l := range logs {
		if l == nil {
			continue
		}
		for _, s := range l.spans {
			fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\t%d\t%d\n", s.op, spanNames[s.kind],
				opNames[s.opKind], s.start, s.end, s.reads, s.writes)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
