package main

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"safepriv/internal/core"
	"safepriv/internal/engine"
	"safepriv/internal/quiesce"
	"safepriv/internal/stmkv"
	"safepriv/internal/telemetry"
)

// TestTracedTMChangesNothing runs one scripted op sequence on a store
// over a bare tl2 TM and on a store over the traced decorator, with
// every op traced. Every result must match, the decorated TM's
// telemetry must advance exactly as the bare one's, and Clear/Resize
// must still take one grace period each (the decorator forwards
// core.BatchFencer instead of degrading to one per shard).
func TestTracedTMChangesNothing(t *testing.T) {
	const shards, slots = 4, 64
	newTM := func() core.TM {
		tm, err := engine.NewSpec("tl2", stmkv.RegsNeeded(shards, slots), 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tm
	}
	bareTM, innerTM := newTM(), newTM()
	tt := newTracedTM(innerTM, 3, newClock())
	log := newSpanLog(1 << 16)
	tt.attach(1, log)
	bare, err := stmkv.New(bareTM, shards, slots)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := stmkv.New(tt, shards, slots)
	if err != nil {
		t.Fatal(err)
	}

	pcg := rand.NewPCG(1, 2)
	rng := rand.New(pcg)
	cursors := [2]string{}
	step := func(i int, s *stmkv.Store, c *string) string {
		key := 1 + rng.Int64N(150)
		switch r := rng.IntN(100); {
		case r < 40:
			v, ok, err := s.Get(1, key)
			return fmt.Sprint("get", key, v, ok, err)
		case r < 75:
			return fmt.Sprint("put", key, s.Put(1, key, int64(i)))
		case r < 93:
			removed, err := s.Delete(1, key)
			return fmt.Sprint("delete", key, removed, err)
		case r < 98:
			pairs, next, err := s.ScanPage(1, *c, 16)
			*c = next
			return fmt.Sprint("scan", pairs, next, err)
		case r < 99:
			return fmt.Sprint("resize", s.Resize(1, 8+rng.IntN(slots)), s.Drain(1))
		default:
			return fmt.Sprint("clear", s.Clear(1), s.Drain(1))
		}
	}
	for i := 0; i < 4000; i++ {
		// Replay the same draws on both stores.
		saved := *pcg
		want := step(i, bare, &cursors[0])
		*pcg = saved
		tt.beginOp(1, opID(0, uint64(i+1)))
		got := step(i, traced, &cursors[1])
		tt.endOp(1)
		if got != want {
			t.Fatalf("op %d: traced store returned %q, bare store %q", i, got, want)
		}
	}

	// Every counter but the fence wait time (a duration) must match.
	board := func(tm core.TM) telemetry.Snapshot {
		s := tm.(telemetry.Provider).TelemetryBoard().Snapshot()
		if s.FenceWaitNs > 0 {
			s.FenceWaitNs = 1
		}
		return s
	}
	if got, want := board(tt), board(bareTM); got != want || got.Commits == 0 || got.Privatizations == 0 {
		t.Errorf("telemetry through the decorator %+v, bare %+v (both must advance, equally)", got, want)
	}
	qs := func(tm core.TM) quiesce.Stats { return tm.(interface{ QuiesceStats() quiesce.Stats }).QuiesceStats() }
	if got, want := qs(innerTM), qs(bareTM); !reflect.DeepEqual(got, want) {
		t.Errorf("quiesce stats through the decorator %+v, bare %+v", got, want)
	}
	if got, want := traced.Stats(), bare.Stats(); got != want {
		t.Errorf("store stats through the decorator %+v, bare %+v", got, want)
	}
	var kinds [4]int
	for _, s := range log.spans {
		kinds[s.kind]++
	}
	if kinds[spanTxn] == 0 || kinds[spanFence] == 0 || log.dropped != 0 {
		t.Errorf("span kinds recorded %v, dropped %d: want txn and fence spans", kinds, log.dropped)
	}
}

func TestAnalyzeSelfTimes(t *testing.T) {
	l := newSpanLog(16)
	id := opID(1, 7)
	l.add(span{op: id, start: 110, end: 150, kind: spanTxn, reads: 4, writes: 1})
	l.add(span{op: id, start: 150, end: 180, kind: spanFence})
	l.add(span{op: id, start: 190, end: 260, kind: spanTxn, reads: 2})
	l.add(span{op: id, start: 100, end: 300, kind: spanOp, opKind: opPut})
	h := newSpanLog(4)
	h.add(span{op: opID(0, 3), start: 20, end: 50, kind: spanHandler})
	w := newSpanLog(4)
	w.add(span{op: opID(0, 3), start: 0, end: 80, kind: spanOp, opKind: opGet})
	st := analyze([]*spanLog{w, l}, h)
	if st.ops != 2 || st.opNs != 280 || st.txns != 2 || st.reads != 6 || st.writes != 1 {
		t.Fatalf("counts: %+v", st)
	}
	if st.txnNs != 110 || st.fenceNs != 30 || st.handlerNs != 30 {
		t.Fatalf("child times: txn %d fence %d handler %d", st.txnNs, st.fenceNs, st.handlerNs)
	}
	if st.opSelfNs != 60+50 {
		t.Fatalf("op self time %d, want 110", st.opSelfNs)
	}
	if st.opSelfNs+st.txnNs+st.fenceNs+st.handlerNs != st.opNs {
		t.Fatal("self times do not add up to the op span time")
	}
	if st.unmatchedChildren != 0 || st.misplaced != 0 {
		t.Fatalf("%d unmatched, %d misplaced children", st.unmatchedChildren, st.misplaced)
	}
}

// TestAnalyzeFlagsMisplacedChildren: a child span that leaves its op
// span or overlaps a sibling is counted, and then self plus child time
// no longer equals the op span time, which fails a traced run.
func TestAnalyzeFlagsMisplacedChildren(t *testing.T) {
	l := newSpanLog(16)
	a, b := opID(1, 1), opID(1, 2)
	l.add(span{op: a, start: 100, end: 150, kind: spanTxn})
	l.add(span{op: a, start: 140, end: 170, kind: spanFence}) // overlaps the txn
	l.add(span{op: a, start: 100, end: 200, kind: spanOp})
	l.add(span{op: b, start: 250, end: 320, kind: spanTxn}) // ends after its op
	l.add(span{op: b, start: 200, end: 300, kind: spanOp})
	l.add(span{op: opID(1, 9), start: 400, end: 410, kind: spanTxn}) // no op span
	st := analyze([]*spanLog{l}, nil)
	if st.misplaced != 2 || st.unmatchedChildren != 1 {
		t.Fatalf("misplaced %d, unmatched %d: want 2 and 1", st.misplaced, st.unmatchedChildren)
	}
	if st.opSelfNs+st.txnNs+st.fenceNs == st.opNs {
		t.Fatal("self plus child time equals the op span time despite misplaced children")
	}
}
