package relstore

import "sync"

// The decoded-block cache holds BlockZIP blocks (see internal/blockzip)
// in their native decoded form, keyed by (store table, block number),
// so warm queries over compressed storage skip both the zlib inflate
// and the decode. A columnar block is cached as one fully decoded
// ColBatch, a legacy row blob as its arena rows. It reuses the page
// cache's sharded-CLOCK design, but the budget is bytes rather than
// entries: decoded blocks vary widely in size (a jumbo BLOB block can
// dwarf a 4000-byte one), so counting entries would make the
// configured capacity meaningless.
//
// Entries are immutable once published: block blobs are append-only
// (a block number is never rewritten), so a hit hands the shared
// vectors or rows to concurrent readers without copying. A reader of a
// cached batch copies the batch header and sets its own selection on
// the copy; nothing inside the entry is ever written (DESIGN.md §8.3).

// minShardBlockBytes is the target minimum per-shard byte budget when
// choosing the shard count.
const minShardBlockBytes = 256 << 10

type blockKey struct {
	store   uint64 // owning blob Table.id; ids are never reused
	blockNo int64
}

// DecodedBlock is one decoded BlockZIP block: exactly one of Batch (a
// columnar block, every column decoded) and Rows (a legacy row blob)
// is set.
type DecodedBlock struct {
	Batch *ColBatch
	Rows  []Row
}

// valueBytes approximates the in-memory footprint of one Value header;
// string and byte payloads are added separately.
const valueBytes = 64

// footprint is the entry's budget charge: the vector payloads of a
// batch, or the arena cells of row-decoded blocks.
func (d DecodedBlock) footprint() int {
	n := 0
	if d.Batch != nil {
		for c := range d.Batch.Cols {
			v := &d.Batch.Cols[c]
			n += len(v.Kinds) + 8*(len(v.I)+len(v.F)) + 16*len(v.S) + valueBytes*len(v.Aux)
			for _, s := range v.S {
				n += len(s)
			}
			for _, a := range v.Aux {
				n += len(a.S) + len(a.B)
			}
		}
	}
	for _, r := range d.Rows {
		n += valueBytes * len(r)
		for _, a := range r {
			n += len(a.S) + len(a.B)
		}
	}
	return max(n, 1)
}

type blockEntry struct {
	blk   DecodedBlock
	bytes int
	ref   bool // CLOCK reference bit, set on every hit
}

type blockShard struct {
	mu      sync.Mutex
	entries map[blockKey]*blockEntry
	bytes   int // sum of entry sizes in this shard
	// ring is the CLOCK ring of keys in insertion order.
	ring []blockKey
	hand int
}

type blockCache struct {
	shards      []blockShard
	shardBudget int
	mask        uint64 // len(shards) - 1; shard count is a power of two
	total       int    // configured budget in bytes; 0 disables caching
}

// newBlockCache sizes the shard array so each shard owns at least
// minShardBlockBytes of budget (exact budget for tiny caches, up to
// maxCacheShards shards for large ones).
func newBlockCache(totalBytes int) *blockCache {
	bc := &blockCache{total: totalBytes}
	if totalBytes <= 0 {
		return bc
	}
	n := 1
	for n < maxCacheShards && totalBytes/(n*2) >= minShardBlockBytes {
		n *= 2
	}
	bc.shards = make([]blockShard, n)
	bc.mask = uint64(n - 1)
	bc.shardBudget = (totalBytes + n - 1) / n
	for i := range bc.shards {
		bc.shards[i].entries = map[blockKey]*blockEntry{}
	}
	return bc
}

func (bc *blockCache) shard(k blockKey) *blockShard {
	h := k.store*0x9E3779B97F4A7C15 + uint64(k.blockNo)*0xBF58476D1CE4E5B9
	h ^= h >> 29
	return &bc.shards[h&bc.mask]
}

func (bc *blockCache) get(k blockKey) (DecodedBlock, bool) {
	sh := bc.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[k]
	if !ok {
		return DecodedBlock{}, false
	}
	e.ref = true
	return e.blk, true
}

// put publishes a decoded block and returns the resident entry. The
// caller transfers ownership of blk to the cache: it must never be
// mutated afterwards. When a concurrent miss published the key first,
// that entry wins and is returned, so the shard's byte count never
// moves without an eviction check. Entries larger than a whole shard's
// budget are not cached at all (they would evict everything and then
// be evicted themselves on the next insert).
func (bc *blockCache) put(k blockKey, blk DecodedBlock) DecodedBlock {
	nbytes := blk.footprint()
	if nbytes > bc.shardBudget {
		return blk
	}
	sh := bc.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[k]; ok {
		e.ref = true
		return e.blk
	}
	for sh.bytes+nbytes > bc.shardBudget {
		if !sh.evictOne() {
			break
		}
	}
	sh.entries[k] = &blockEntry{blk: blk, bytes: nbytes}
	sh.ring = append(sh.ring, k)
	sh.bytes += nbytes
	return blk
}

// evictOne runs the clock hand until one entry is evicted: referenced
// entries get a second chance (ref cleared), unreferenced entries are
// removed.
func (sh *blockShard) evictOne() bool {
	for len(sh.ring) > 0 {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		k := sh.ring[sh.hand]
		e, ok := sh.entries[k]
		if !ok {
			sh.ring = append(sh.ring[:sh.hand], sh.ring[sh.hand+1:]...)
			continue
		}
		if e.ref {
			e.ref = false
			sh.hand++
			continue
		}
		delete(sh.entries, k)
		sh.ring = append(sh.ring[:sh.hand], sh.ring[sh.hand+1:]...)
		sh.bytes -= e.bytes
		return true
	}
	return false
}

// bytesUsed reports the cached bytes across all shards.
func (bc *blockCache) bytesUsed() int {
	n := 0
	for i := range bc.shards {
		sh := &bc.shards[i]
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// entryCount reports the number of cached blocks across all shards.
func (bc *blockCache) entryCount() int {
	n := 0
	for i := range bc.shards {
		sh := &bc.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// ---- Database wiring ----

// SetBlockCacheBytes sets the decoded-block cache budget in bytes;
// 0 (the default) disables the cache entirely so every compressed
// read pays inflate + decode, which keeps cold-methodology numbers
// honest unless a deployment opts in.
func (db *Database) SetBlockCacheBytes(n int) {
	db.blockCacheCap.Store(int64(n))
	db.blockCache.Store(newBlockCache(n))
}

// BlockCacheBytes reports the bytes currently held by the decoded-block
// cache.
func (db *Database) BlockCacheBytes() int { return db.blockCache.Load().bytesUsed() }

// CachedBlocks reports how many decoded blocks are currently cached.
func (db *Database) CachedBlocks() int { return db.blockCache.Load().entryCount() }

// LoadBlock returns the decoded form of block blockNo of the given
// store table: the cached entry on a hit, otherwise load's result,
// which is then cached. The returned block is shared and immutable.
// With no cache configured, ok is false and load is not called: the
// caller decodes only what it needs. Hit/miss counters are updated.
func (db *Database) LoadBlock(store *Table, blockNo int64, load func() (DecodedBlock, error)) (blk DecodedBlock, ok bool, err error) {
	bc := db.blockCache.Load()
	if bc.total == 0 {
		return DecodedBlock{}, false, nil
	}
	k := blockKey{store.id, blockNo}
	if blk, ok := bc.get(k); ok {
		db.stats.blockCacheHits.Add(1)
		return blk, true, nil
	}
	db.stats.blockCacheMisses.Add(1)
	if blk, err = load(); err != nil {
		return DecodedBlock{}, false, err
	}
	return bc.put(k, blk), true, nil
}
