//go:build race

package stmkv_test

// raceEnabled reports a race-detector build: sync.Pool drops a random
// share of its items under the detector, so allocation counts through
// pooled paths (the quiescence fence) are not meaningful there.
const raceEnabled = true
