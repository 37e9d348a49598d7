package relstore

// CachedBatches lists the batches the decoded-block cache holds.
func (db *Database) CachedBatches() []*ColBatch {
	bc := db.blockCache.Load()
	var out []*ColBatch
	for i := range bc.shards {
		sh := &bc.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			if e.blk.Batch != nil {
				out = append(out, e.blk.Batch)
			}
		}
		sh.mu.Unlock()
	}
	return out
}
