package stmkv_test

import (
	"encoding/base64"
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"safepriv/internal/stmkv"
)

// TestScanPageWalk walks cursors over a store much larger than one page
// and checks the pages reassemble exactly the Scan result set, on every
// TM.
func TestScanPageWalk(t *testing.T) {
	for _, spec := range allSpecs {
		t.Run(spec, func(t *testing.T) {
			s := newStore(t, spec, 4, 256, 3)
			const n = 500
			for k := int64(1); k <= n; k++ {
				if err := s.Put(1, k, k*10); err != nil {
					t.Fatalf("Put(%d): %v", k, err)
				}
			}
			const limit = 64
			var got []stmkv.KV
			cursor := ""
			pages := 0
			for {
				pairs, next, err := s.ScanPage(1, cursor, limit)
				if err != nil {
					t.Fatalf("ScanPage(%q): %v", cursor, err)
				}
				if len(pairs) > limit {
					t.Fatalf("page of %d pairs exceeds limit %d", len(pairs), limit)
				}
				got = append(got, pairs...)
				pages++
				if next == "" {
					break
				}
				cursor = next
			}
			if pages < n/limit {
				t.Fatalf("%d pairs came back in %d pages of limit %d", n, pages, limit)
			}
			if len(got) != n {
				t.Fatalf("paginated scan returned %d pairs, want %d", len(got), n)
			}
			sort.Slice(got, func(i, j int) bool { return got[i].Key < got[j].Key })
			for i, kv := range got {
				if kv.Key != int64(i+1) || kv.Val != kv.Key*10 {
					t.Fatalf("pair %d = %+v, want {%d %d}", i, kv, i+1, int64(i+1)*10)
				}
			}
			if st := s.Stats(); st.ScanWindows == 0 {
				t.Fatalf("paginated scan recorded no scan windows: %+v", st)
			}
		})
	}
}

// TestScanPageRehashMidScan cuts a cursor, grows the shard under it
// (rehash replaces the table block), and resumes: the stale table
// identity must be detected and the shard restarted, so every key
// present for the whole scan appears at least once.
func TestScanPageRehashMidScan(t *testing.T) {
	s := newStore(t, "tl2", 1, 512, 3) // one shard: the cursor always points into it
	for k := int64(1); k <= 40; k++ {
		if err := s.Put(1, k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	pairs, next, err := s.ScanPage(1, "", 8)
	if err != nil {
		t.Fatal(err)
	}
	if next == "" {
		t.Fatalf("40 keys in pages of 8 finished in one page (%d pairs)", len(pairs))
	}
	// Force a rehash of the shard the cursor points into.
	for k := int64(100); k <= 300; k++ {
		if err := s.Put(1, k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[int64]bool)
	for _, kv := range pairs {
		seen[kv.Key] = true
	}
	for next != "" {
		pairs, next, err = s.ScanPage(1, next, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range pairs {
			if kv.Val != kv.Key*10 {
				t.Fatalf("pair %+v breaks the k*10 convention", kv)
			}
			seen[kv.Key] = true
		}
	}
	// The original 40 keys were present for the whole scan: at-least-once
	// delivery must cover every one of them despite the rehash.
	for k := int64(1); k <= 40; k++ {
		if !seen[k] {
			t.Fatalf("key %d present for the whole scan was never returned", k)
		}
	}
}

// TestScanPageBadCursor pins the typed error for garbage cursors.
func TestScanPageBadCursor(t *testing.T) {
	s := newStore(t, "tl2", 2, 64, 2)
	for _, bad := range []string{
		"not base64 ***",
		"aGVsbG8",      // decodes, wrong shape
		"OTk5LjAuMC4w", // "999.0.0.0": shard out of range
		base64.RawURLEncoding.EncodeToString([]byte("\x00\x00\x00\x00junk")), // valid fields, trailing bytes
		strings.Repeat("A", 100), // longer than any cursor ScanPage cuts
	} {
		if _, _, err := s.ScanPage(1, bad, 10); !errors.Is(err, stmkv.ErrBadCursor) {
			t.Fatalf("ScanPage(%q) error = %v, want ErrBadCursor", bad, err)
		}
	}
	// The same fields without the trailing bytes are a valid cursor.
	if _, _, err := s.ScanPage(1, base64.RawURLEncoding.EncodeToString([]byte{0, 0, 0, 0}), 10); err != nil {
		t.Fatalf("ScanPage(zero cursor): %v", err)
	}
	// limit <= 0 falls back to the default page size rather than erroring.
	if err := s.Put(1, 7, 70); err != nil {
		t.Fatal(err)
	}
	pairs, next, err := s.ScanPage(1, "", 0)
	if err != nil || next != "" || len(pairs) != 1 {
		t.Fatalf("ScanPage default limit = %v pairs, next %q, err %v", pairs, next, err)
	}
}

// TestScanPageAllocs pins the allocation budget of a resumed page: the
// page buffer and the next cursor string. Cursor parsing, the
// privatize→fence→walk→publish window and a publish with no parked
// waiter allocate nothing.
func TestScanPageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts through the fence's sync.Pool are randomized under the race detector")
	}
	s := newStore(t, "tl2", 4, 256, 3)
	for k := int64(1); k <= 500; k++ {
		if err := s.Put(1, k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	_, next, err := s.ScanPage(1, "", 64)
	if err != nil || next == "" {
		t.Fatalf("first page: next %q, err %v", next, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		pairs, n, err := s.ScanPage(1, next, 64)
		if err != nil || n == "" || len(pairs) != 64 {
			t.Fatalf("resumed page: %d pairs, next %q, err %v", len(pairs), n, err)
		}
	})
	if allocs > 2 {
		t.Fatalf("resumed ScanPage page: %v allocs, want <= 2 (page buffer + cursor)", allocs)
	}
	const key = 7
	cycle := testing.AllocsPerRun(100, func() {
		if err := s.PrivatizeShardOf(1, key); err != nil {
			t.Fatal(err)
		}
		if err := s.PublishShardOf(1, key); err != nil {
			t.Fatal(err)
		}
	})
	if cycle != 0 {
		t.Fatalf("privatize+publish with no parked waiter: %v allocs, want 0", cycle)
	}
}

// TestScanPageHugeLimitBoundsBuffer pins the page buffer's capacity
// bound: a client-chosen limit far beyond the store's size must not
// size the allocation.
func TestScanPageHugeLimitBoundsBuffer(t *testing.T) {
	s := newStore(t, "tl2", 4, 64, 2)
	for k := int64(1); k <= 20; k++ {
		if err := s.Put(1, k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	pairs, next, err := s.ScanPage(1, "", 1<<40)
	if err != nil || next != "" || len(pairs) != 20 {
		t.Fatalf("ScanPage(limit 2^40) = %d pairs, next %q, err %v", len(pairs), next, err)
	}
	if cap(pairs) > stmkv.DefaultScanPageLimit {
		t.Fatalf("page buffer capacity %d exceeds %d", cap(pairs), stmkv.DefaultScanPageLimit)
	}
}

// TestScanPageParkedGetWakes holds a shard private until a Get on it
// has spun out and counted itself as a gate waiter, then publishes: the
// Get must return the stored value, and the waiter count must be back
// to zero once it has.
func TestScanPageParkedGetWakes(t *testing.T) {
	for _, spec := range allSpecs {
		t.Run(spec, func(t *testing.T) {
			s := newStore(t, spec, 2, 64, 3)
			const key = 5
			if err := s.Put(1, key, 50); err != nil {
				t.Fatal(err)
			}
			if err := s.PrivatizeShardOf(1, key); err != nil {
				t.Fatal(err)
			}
			type result struct {
				v   int64
				ok  bool
				err error
			}
			done := make(chan result, 1)
			go func() {
				v, ok, err := s.Get(2, key)
				done <- result{v, ok, err}
			}()
			deadline := time.Now().Add(10 * time.Second)
			for s.GateWaiters() == 0 {
				select {
				case r := <-done:
					t.Fatalf("Get returned %+v while its shard was private", r)
				default:
				}
				if time.Now().After(deadline) {
					t.Fatal("Get never reached the parking phase")
				}
				time.Sleep(50 * time.Microsecond)
			}
			time.Sleep(time.Millisecond) // let it park
			if err := s.PublishShardOf(1, key); err != nil {
				t.Fatal(err)
			}
			select {
			case r := <-done:
				if r.err != nil || !r.ok || r.v != 50 {
					t.Fatalf("parked Get = (%d, %v, %v), want (50, true, nil)", r.v, r.ok, r.err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("parked Get did not return after publish")
			}
			if w := s.GateWaiters(); w != 0 {
				t.Fatalf("gate waiter count %d after the Get returned, want 0", w)
			}
		})
	}
}

// FuzzScanPageCursor feeds arbitrary cursor strings to ScanPage and
// arbitrary fields to the cursor codec. A string is either rejected
// with ErrBadCursor or resumes a well-formed page; fields inside the
// store's geometry survive an encode/parse round trip, and fields
// outside it are rejected.
func FuzzScanPageCursor(f *testing.F) {
	const shards, slots, limit = 4, 64, 16
	s := newStore(f, "tl2", shards, slots, 2)
	for k := int64(1); k <= 100; k++ {
		if err := s.Put(1, k, k*10); err != nil {
			f.Fatal(err)
		}
	}
	regs := int64(stmkv.RegsNeeded(shards, slots))
	f.Fuzz(func(t *testing.T, cursor string, shard, slot, tab, cap int64) {
		pairs, _, err := s.ScanPage(1, cursor, limit)
		if err != nil && !errors.Is(err, stmkv.ErrBadCursor) {
			t.Fatalf("ScanPage(%q): %v, want nil or ErrBadCursor", cursor, err)
		}
		if len(pairs) > limit {
			t.Fatalf("ScanPage(%q) returned %d pairs, limit %d", cursor, len(pairs), limit)
		}
		for _, kv := range pairs {
			if kv.Key < 1 || kv.Key > 100 || kv.Val != kv.Key*10 {
				t.Fatalf("ScanPage(%q) returned pair %+v that was never stored", cursor, kv)
			}
		}

		enc := stmkv.EncodeCursor(shard, slot, tab, cap)
		gs, gl, gt, gc, err := s.ParseCursor(enc)
		inRange := shard >= 0 && shard < shards && tab >= 0 && tab < regs &&
			cap >= 0 && cap <= slots && slot >= 0 && slot <= cap
		switch {
		case inRange && err != nil:
			t.Fatalf("in-range cursor {%d %d %d %d} rejected: %v", shard, slot, tab, cap, err)
		case inRange && (gs != shard || gl != slot || gt != tab || gc != cap):
			t.Fatalf("cursor {%d %d %d %d} round-tripped to {%d %d %d %d}",
				shard, slot, tab, cap, gs, gl, gt, gc)
		case !inRange && !errors.Is(err, stmkv.ErrBadCursor):
			t.Fatalf("out-of-range cursor {%d %d %d %d}: err %v, want ErrBadCursor",
				shard, slot, tab, cap, err)
		}
	})
}
