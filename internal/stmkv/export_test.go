package stmkv

// InjectAsyncErr records err as if a deferred maintenance callback had
// failed — the test hook behind Drain's surface-once regression test.
func (s *Store) InjectAsyncErr(err error) { s.fail(err) }

// EncodeCursor and ParseCursor expose the scan cursor codec to the
// round-trip fuzz target.
func EncodeCursor(shard, slot, tab, cap int64) string {
	return encodeCursor(scanCursor{shard, slot, tab, cap})
}

func (s *Store) ParseCursor(str string) (shard, slot, tab, cap int64, err error) {
	c, err := s.parseCursor(str)
	return c.shard, c.slot, c.tab, c.cap, err
}

// PrivatizeShardOf and PublishShardOf run the two halves of a scan
// window on key's shard, so tests can hold it private at will.
func (s *Store) PrivatizeShardOf(th int, key int64) error {
	return s.privatize(th, s.base(s.shardOf(key)))
}

func (s *Store) PublishShardOf(th int, key int64) error {
	return s.publish(th, s.base(s.shardOf(key)))
}

// GateWaiters is the number of point operations counted as parked (or
// about to park) on the publish gate.
func (s *Store) GateWaiters() int64 { return s.pubGate.waiters.Load() }
