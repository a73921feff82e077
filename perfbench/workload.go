package main

import (
	"fmt"
	"math/rand/v2"
)

// workload is one input set: store geometry, key range, op mix and the
// benchmark's sizing of the run. Every field goes into the run record.
type workload struct {
	Name      string `json:"name"`
	HTTP      bool   `json:"http"` // served through kvserve on a loopback listener
	Shards    int    `json:"shards"`
	Slots     int    `json:"slots"`
	Keys      int64  `json:"keys"` // keys 1..Keys; half are prefilled
	GetPct    int    `json:"get_pct"`
	PutPct    int    `json:"put_pct"`
	DeletePct int    `json:"delete_pct"`
	ScanPct   int    `json:"scan_pct"`
	ScanLimit int    `json:"scan_limit"`
	Workers   int    `json:"workers"` // closed-loop callers, one TM thread id or connection each
	// Stream is the length of each worker's pre-drawn op stream; the
	// timed phase cycles through it.
	Stream int `json:"stream_ops_per_worker"`
	// Warmup ops per worker run after the prefill, inside set-up.
	Warmup int `json:"warmup_ops_per_worker"`
	// TraceEvery samples one op in that many for spans, so that a
	// traced phase of 20 s keeps each span log well under spanCap.
	TraceEvery int `json:"trace_every"`
}

var workloads = []workload{
	{Name: "http-point", HTTP: true, Shards: 16, Slots: 512, Keys: 4096,
		GetPct: 90, PutPct: 5, DeletePct: 5, Workers: 2,
		Stream: 1 << 16, Warmup: 2000, TraceEvery: 4},
	{Name: "store-point", Shards: 256, Slots: 2048, Keys: 1 << 19,
		GetPct: 90, PutPct: 5, DeletePct: 5, Workers: 2,
		Stream: 1 << 20, Warmup: 200_000, TraceEvery: 256},
	{Name: "store-scan-churn", Shards: 16, Slots: 512, Keys: 4096,
		GetPct: 50, PutPct: 24, DeletePct: 24, ScanPct: 2, ScanLimit: 64, Workers: 2,
		Stream: 1 << 20, Warmup: 200_000, TraceEvery: 256},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	opGet uint8 = iota
	opPut
	opDelete
	opScan
	numOpKinds
)

var opNames = [...]string{"get", "put", "delete", "scan"}

// op is one pre-drawn operation. Keys fit in 32 bits for every
// workload, which keeps a stream of 2^20 ops at 8 MiB.
type op struct {
	key  int32
	kind uint8
}

// Keys are split into residue classes: worker w owns the keys k with
// (k-1) % workers == w and is the only one that writes them, so its
// oracle knows their exact state. Any worker may read any key.
func owner(key int64, workers int) int { return int((key - 1) % int64(workers)) }

// Every stored value encodes its key, its writer and the writer's
// sequence number: key<<32 | worker<<28 | seq mod 2^28.
func encodeValue(key int64, worker int, seq uint64) int64 {
	return key<<32 | int64(worker)<<28 | int64(seq&(1<<28-1))
}

// validValue reports whether v could have been written for key: it
// names key and key's owner.
func validValue(key, v int64, workers int) bool {
	return v>>32 == key && int((v>>28)&15) == owner(key, workers)
}

// streams draws every worker's op stream and prefill key list from
// seed. The program under test only ever sees the drawn keys and ops.
func (w workload) streams(seed uint64) (ops [][]op, prefill [][]int64) {
	ops = make([][]op, w.Workers)
	prefill = make([][]int64, w.Workers)
	perm := rand.New(rand.NewPCG(seed, 0x5eed)).Perm(int(w.Keys))
	for _, k := range perm[:w.Keys/2] {
		key := int64(k) + 1
		o := owner(key, w.Workers)
		prefill[o] = append(prefill[o], key)
	}
	owned := w.Keys / int64(w.Workers)
	for wk := range ops {
		rng := rand.New(rand.NewPCG(seed, uint64(wk)+1))
		s := make([]op, w.Stream)
		for i := range s {
			r := rng.IntN(100)
			switch {
			case r < w.GetPct:
				s[i] = op{key: int32(1 + rng.Int64N(w.Keys)), kind: opGet}
			case r < w.GetPct+w.PutPct:
				s[i] = op{key: int32(1 + int64(wk) + int64(w.Workers)*rng.Int64N(owned)), kind: opPut}
			case r < w.GetPct+w.PutPct+w.DeletePct:
				s[i] = op{key: int32(1 + int64(wk) + int64(w.Workers)*rng.Int64N(owned)), kind: opDelete}
			default:
				s[i] = op{kind: opScan}
			}
		}
		ops[wk] = s
	}
	return ops, prefill
}

// oracle is one worker's record of its own keys: the last value it
// wrote to each, or 0 when the key is absent.
type oracle struct {
	worker, workers int
	vals            []int64 // indexed by (key-1)/workers
	seq             uint64
}

func newOracle(worker, workers int, keys int64) *oracle {
	return &oracle{worker: worker, workers: workers, vals: make([]int64, keys/int64(workers))}
}

func (o *oracle) owns(key int64) bool { return owner(key, o.workers) == o.worker }
func (o *oracle) get(key int64) int64 { return o.vals[(key-1)/int64(o.workers)] }
func (o *oracle) set(key, v int64)    { o.vals[(key-1)/int64(o.workers)] = v }

// next draws the value the worker's next write of key stores.
func (o *oracle) next(key int64) int64 {
	o.seq++
	return encodeValue(key, o.worker, o.seq)
}

// live counts the worker's keys that are present.
func (o *oracle) live() int64 {
	n := int64(0)
	for _, v := range o.vals {
		if v != 0 {
			n++
		}
	}
	return n
}
