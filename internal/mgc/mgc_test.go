package mgc

import (
	"sync/atomic"
	"testing"

	"safepriv/internal/core"
	"safepriv/internal/engine"
	"safepriv/internal/record"
)

func TestRunAndCheckSmall(t *testing.T) {
	res, err := RunAndCheck(Config{
		Threads:       3,
		DataRegs:      4,
		TxnsPerThread: 15,
		OpsPerTxn:     3,
		Rounds:        4,
		Seed:          1,
	})
	if err != nil {
		t.Fatalf("strong opacity violated: %v", err)
	}
	if !res.Report.DRF {
		t.Fatal("protocol should produce DRF histories")
	}
	if res.Txns == 0 || res.NonTxn == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
}

func TestRunAndCheckManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(1); seed <= 8; seed++ {
		res, err := RunAndCheck(Config{
			Threads:       4,
			DataRegs:      3,
			TxnsPerThread: 10,
			OpsPerTxn:     2,
			Rounds:        3,
			Seed:          seed,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Report.DRF {
			t.Fatalf("seed %d: racy history", seed)
		}
	}
}

func TestRunAndCheckVariants(t *testing.T) {
	for _, spec := range []string{"tl2+gv4", "tl2+epochs", "tl2+rofast", "atomic"} {
		t.Run(spec, func(t *testing.T) {
			_, err := RunAndCheck(Config{
				Threads:       3,
				DataRegs:      3,
				TxnsPerThread: 10,
				OpsPerTxn:     2,
				Rounds:        3,
				Seed:          7,
				TM:            spec,
			})
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
		})
	}
}

func TestBadConfigRejected(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestRunAndCheckNOrec(t *testing.T) {
	res, err := RunAndCheck(Config{
		Threads:       3,
		DataRegs:      3,
		TxnsPerThread: 12,
		OpsPerTxn:     2,
		Rounds:        3,
		Seed:          5,
		TM:            "norec",
	})
	if err != nil {
		t.Fatalf("NOrec strong opacity violated: %v", err)
	}
	if !res.Report.DRF {
		t.Fatal("NOrec mgc history racy")
	}
}

// abortFirstTM wraps a TM so the first commit attempt of every thread-1
// transaction aborts instead: each privatize and publish transaction of
// the most general client is retried once.
type abortFirstTM struct {
	core.TM
	retried *atomic.Int64
}

func (a abortFirstTM) Begin(thread int) core.Txn {
	tx := a.TM.Begin(thread)
	if thread != 1 {
		return tx
	}
	return &abortFirstTxn{Txn: tx, retried: a.retried}
}

type abortFirstTxn struct {
	core.Txn
	retried *atomic.Int64
}

// Commit aborts every other thread-1 attempt, starting with the first:
// Atomically retries, and the retry commits.
func (t *abortFirstTxn) Commit() error {
	if t.retried.Add(1)&1 == 1 {
		t.Txn.Abort()
		return core.ErrAborted
	}
	return t.Txn.Commit()
}

// TestFlagRetryWritesFreshValues forces a retry of every flag
// transaction: a retried attempt must not rewrite the value its aborted
// attempt already wrote, or the checker rejects the history as
// ill-formed (two writes of one value).
func TestFlagRetryWritesFreshValues(t *testing.T) {
	var retried atomic.Int64
	res, err := RunAndCheck(Config{
		Threads: 3, DataRegs: 3, TxnsPerThread: 10, OpsPerTxn: 2, Rounds: 4, Seed: 3,
		MakeTM: func(sink record.Sink, regs, threads int) core.TM {
			return abortFirstTM{engine.MustNewSpec("atomic", regs, threads, sink), &retried}
		},
	})
	if err != nil {
		t.Fatalf("strong opacity violated with retried flag transactions: %v", err)
	}
	if !res.Report.DRF {
		t.Fatal("protocol produced a racy history")
	}
	if n := retried.Load(); n < 2*2*4 {
		t.Fatalf("%d thread-1 commit attempts, want at least two per flag transaction", n)
	}
}
