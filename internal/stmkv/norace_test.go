//go:build !race

package stmkv_test

const raceEnabled = false
