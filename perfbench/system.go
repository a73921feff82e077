package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"safepriv/internal/core"
	"safepriv/internal/engine"
	"safepriv/internal/kvserve"
	"safepriv/internal/quiesce"
	"safepriv/internal/stmalloc"
	"safepriv/internal/stmkv"
	"safepriv/internal/telemetry"
)

// system is one built instance of the program under test: the
// in-process store, or kvserve behind a loopback HTTP listener.
type system interface {
	// exec runs one op for wk, checks its outcome against wk's oracle
	// and records any failure on wk. A nonzero id marks a sampled op in
	// a traced phase.
	exec(wk *worker, o op, id uint64)
	// verify compares every key, and a full scan walk, with the
	// oracles. It runs after the workers have stopped.
	verify(t *tally, oracles []*oracle)
	counters() counters
	close() error
}

// counters are the program's own cumulative counts, read through its
// public API.
type counters struct {
	tel   telemetry.Snapshot
	store stmkv.Stats
	heap  stmalloc.Stats
	qs    quiesce.Stats // zero for http-point: kvserve does not expose its TM
}

// tally counts operations and checks, and keeps the first few failure
// messages.
type tally struct {
	attempted, failed int64
	errs              []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < 8 {
			t.errs = append(t.errs, e)
		}
	}
}

// checkRead checks a point read of key by a worker owning or: its own
// keys must match the oracle exactly, any other key must be absent or
// hold a value written for it by its owner.
func checkRead(t *tally, or *oracle, key, v int64, ok bool) {
	if or.owns(key) {
		if want := or.get(key); ok != (want != 0) || (ok && v != want) {
			t.fail("get %d: got (%d, present=%v), oracle %d", key, v, ok, want)
		}
		return
	}
	if ok && !validValue(key, v, or.workers) {
		t.fail("get %d: value %#x does not encode this key and its owner", key, v)
	}
}

// checkPage checks one scan page: every pair encodes its own key, and
// the worker's own keys hold exactly their oracle value (the worker is
// their only writer, and it is blocked in this scan).
func checkPage(t *tally, or *oracle, pairs []stmkv.KV) {
	for _, kv := range pairs {
		if !validValue(kv.Key, kv.Val, or.workers) {
			t.fail("scan: pair (%d, %#x) does not decode to its own key", kv.Key, kv.Val)
			return
		}
		if or.owns(kv.Key) && or.get(kv.Key) != kv.Val {
			t.fail("scan: own key %d holds %#x, oracle %#x", kv.Key, kv.Val, or.get(kv.Key))
			return
		}
	}
}

// verifyAll runs the final check: every key read through get must
// match its owner's oracle, and one full scan walk must return every
// live key exactly once with its oracle value.
func verifyAll(t *tally, oracles []*oracle, keys int64,
	get func(key int64) (int64, bool, error),
	page func(cursor string) ([]stmkv.KV, string, error)) {
	workers := len(oracles)
	for key := int64(1); key <= keys; key++ {
		t.attempted++
		v, ok, err := get(key)
		if err != nil {
			t.fail("verify get %d: %v", key, err)
			continue
		}
		checkRead(t, oracles[owner(key, workers)], key, v, ok)
	}
	seen := make(map[int64]bool)
	cursor := ""
	for {
		t.attempted++
		pairs, next, err := page(cursor)
		if err != nil {
			t.fail("verify scan: %v", err)
			return
		}
		for _, kv := range pairs {
			if seen[kv.Key] {
				t.fail("verify scan: key %d returned twice", kv.Key)
				return
			}
			seen[kv.Key] = true
			if kv.Key < 1 || kv.Key > keys || oracles[owner(kv.Key, workers)].get(kv.Key) != kv.Val {
				t.fail("verify scan: pair (%d, %#x) not in the oracle", kv.Key, kv.Val)
				return
			}
		}
		if cursor = next; cursor == "" {
			break
		}
	}
	live := int64(0)
	for _, or := range oracles {
		live += or.live()
	}
	t.attempted++
	if int64(len(seen)) != live {
		t.fail("verify scan: %d keys scanned, oracles hold %d", len(seen), live)
	}
}

// storeSys is stmkv called directly, over tl2 (optionally through the
// traced decorator). Worker i uses TM thread id i+1.
type storeSys struct {
	w  workload
	tm core.TM // the bare engine TM
	tt *TracedTM
	st *stmkv.Store
}

func newStoreSys(w workload, tt func(core.TM) *TracedTM) (*storeSys, error) {
	tm, err := engine.NewSpec("tl2", stmkv.RegsNeeded(w.Shards, w.Slots), w.Workers, nil)
	if err != nil {
		return nil, err
	}
	s := &storeSys{w: w, tm: tm}
	kvTM := tm
	if tt != nil {
		s.tt = tt(tm)
		kvTM = s.tt
	}
	if s.st, err = stmkv.New(kvTM, w.Shards, w.Slots); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *storeSys) exec(wk *worker, o op, id uint64) {
	th, key := wk.th, int64(o.key)
	t := &wk.tally
	t.attempted++
	if id != 0 && s.tt != nil {
		s.tt.beginOp(th, id)
		defer s.tt.endOp(th)
	}
	switch o.kind {
	case opGet:
		v, ok, err := s.st.Get(th, key)
		if err != nil {
			t.fail("get %d: %v", key, err)
			return
		}
		checkRead(t, wk.or, key, v, ok)
	case opPut:
		v := wk.or.next(key)
		if err := s.st.Put(th, key, v); err != nil {
			t.fail("put %d: %v", key, err)
			return
		}
		wk.or.set(key, v)
	case opDelete:
		removed, err := s.st.Delete(th, key)
		if err != nil {
			t.fail("delete %d: %v", key, err)
			return
		}
		if want := wk.or.get(key) != 0; removed != want {
			t.fail("delete %d: removed=%v, oracle present=%v", key, removed, want)
		}
		wk.or.set(key, 0)
	case opScan:
		pairs, next, err := s.st.ScanPage(th, wk.cursor, s.w.ScanLimit)
		if err != nil {
			t.fail("scan page: %v", err)
			wk.cursor = ""
			return
		}
		wk.cursor = next
		checkPage(t, wk.or, pairs)
	}
}

func (s *storeSys) verify(t *tally, oracles []*oracle) {
	verifyAll(t, oracles, s.w.Keys,
		func(key int64) (int64, bool, error) { return s.st.Get(1, key) },
		func(cursor string) ([]stmkv.KV, string, error) { return s.st.ScanPage(1, cursor, 1024) })
}

func (s *storeSys) counters() counters {
	c := counters{store: s.st.Stats(), heap: s.st.HeapStats()}
	if p, ok := s.tm.(telemetry.Provider); ok {
		c.tel = p.TelemetryBoard().Snapshot()
	}
	if q, ok := s.tm.(interface{ QuiesceStats() quiesce.Stats }); ok {
		c.qs = q.QuiesceStats()
	}
	return c
}

func (s *storeSys) close() error { return s.st.Drain(1) }

// httpSys is kvserve with its default configuration behind a
// 127.0.0.1 listener in this process. Worker i owns one client with
// one keep-alive connection.
type httpSys struct {
	w       workload
	srv     *kvserve.Server
	hs      *http.Server
	served  chan error
	base    string
	clients []*http.Client
}

func newHTTPSys(w workload, tracer *handlerTracer) (*httpSys, error) {
	srv, err := kvserve.New(kvserve.Config{
		Shards: w.Shards, Slots: w.Slots,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if tracer != nil {
		tracer.next = h
		h = tracer
	}
	s := &httpSys{w: w, srv: srv, hs: &http.Server{Handler: h}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String()}
	go func() { s.served <- s.hs.Serve(ln) }()
	for range w.Workers {
		s.clients = append(s.clients, &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
				DisableCompression: true},
		})
	}
	return s, nil
}

// do sends one request and returns its status and body.
func (s *httpSys) do(wk *worker, method string, key int64, body string, id uint64) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+"/kv/"+strconv.FormatInt(key, 10), rd)
	if err != nil {
		return 0, nil, err
	}
	if id != 0 {
		req.Header.Set(opHeader, strconv.FormatUint(id, 10))
	}
	return s.send(wk.idx, req, &wk.buf)
}

func (s *httpSys) send(client int, req *http.Request, buf *bytes.Buffer) (int, []byte, error) {
	resp, err := s.clients[client].Do(req)
	if err != nil {
		return 0, nil, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, buf.Bytes(), err
}

func parseValue(body []byte) (int64, error) {
	return strconv.ParseInt(string(bytes.TrimSpace(body)), 10, 64)
}

func (s *httpSys) exec(wk *worker, o op, id uint64) {
	key := int64(o.key)
	t := &wk.tally
	t.attempted++
	switch o.kind {
	case opGet:
		code, body, err := s.do(wk, http.MethodGet, key, "", id)
		switch {
		case err != nil:
			t.fail("GET %d: %v", key, err)
		case code == http.StatusNotFound:
			checkRead(t, wk.or, key, 0, false)
		case code != http.StatusOK:
			t.fail("GET %d: status %d", key, code)
		default:
			v, err := parseValue(body)
			if err != nil {
				t.fail("GET %d: body %q: %v", key, body, err)
				return
			}
			checkRead(t, wk.or, key, v, true)
		}
	case opPut:
		v := wk.or.next(key)
		code, _, err := s.do(wk, http.MethodPut, key, strconv.FormatInt(v, 10), id)
		if err != nil || code/100 != 2 {
			t.fail("PUT %d: status %d, err %v", key, code, err)
			return
		}
		wk.or.set(key, v)
	case opDelete:
		code, _, err := s.do(wk, http.MethodDelete, key, "", id)
		present := wk.or.get(key) != 0
		switch {
		case err != nil:
			t.fail("DELETE %d: %v", key, err)
		case code/100 == 2 && !present, code == http.StatusNotFound && present:
			t.fail("DELETE %d: status %d, oracle present=%v", key, code, present)
		case code/100 != 2 && code != http.StatusNotFound:
			t.fail("DELETE %d: status %d", key, code)
		default:
			wk.or.set(key, 0)
		}
	default:
		t.fail("http-point has no %s op", opNames[o.kind])
	}
}

func (s *httpSys) verify(t *tally, oracles []*oracle) {
	var buf bytes.Buffer
	get := func(key int64) (int64, bool, error) {
		req, err := http.NewRequest(http.MethodGet, s.base+"/kv/"+strconv.FormatInt(key, 10), nil)
		if err != nil {
			return 0, false, err
		}
		code, body, err := s.send(0, req, &buf)
		switch {
		case err != nil:
			return 0, false, err
		case code == http.StatusNotFound:
			return 0, false, nil
		case code != http.StatusOK:
			return 0, false, fmt.Errorf("status %d", code)
		}
		v, err := parseValue(body)
		return v, err == nil, err
	}
	page := func(cursor string) ([]stmkv.KV, string, error) {
		req, err := http.NewRequest(http.MethodGet, s.base+"/scan?limit=1024&cursor="+cursor, nil)
		if err != nil {
			return nil, "", err
		}
		code, body, err := s.send(0, req, &buf)
		if err != nil {
			return nil, "", err
		}
		if code != http.StatusOK {
			return nil, "", fmt.Errorf("status %d: %s", code, body)
		}
		var reply struct {
			Pairs []struct {
				Key int64 `json:"key"`
				Val int64 `json:"val"`
			} `json:"pairs"`
			Cursor string `json:"cursor"`
			More   bool   `json:"more"`
		}
		if err := json.Unmarshal(body, &reply); err != nil {
			return nil, "", err
		}
		if reply.More != (reply.Cursor != "") {
			return nil, "", errors.New("scan reply: more disagrees with cursor")
		}
		pairs := make([]stmkv.KV, len(reply.Pairs))
		for i, p := range reply.Pairs {
			pairs[i] = stmkv.KV{Key: p.Key, Val: p.Val}
		}
		return pairs, reply.Cursor, nil
	}
	verifyAll(t, oracles, s.w.Keys, get, page)
}

func (s *httpSys) counters() counters {
	st := s.srv.Store()
	return counters{tel: s.srv.Telemetry(), store: st.Stats(), heap: st.HeapStats()}
}

// close shuts the listener down, waits for Serve to return, then
// drains the server's deferred work.
func (s *httpSys) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	if derr := s.srv.Drain(); err == nil {
		err = derr
	}
	return err
}
