package relstore

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func blockCacheTable(t *testing.T, db *Database) *Table {
	t.Helper()
	tbl, err := db.CreateTable(Schema{Name: "blobs", Columns: []Column{
		{Name: "blockno", Type: TypeInt},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// rowsBlock is a one-row decoded block tagged with n whose footprint is
// exactly nbytes (a string payload pads it).
func rowsBlock(n int64, nbytes int) DecodedBlock {
	pad := nbytes - DecodedBlock{Rows: []Row{{Int(n), Null}}}.footprint()
	return DecodedBlock{Rows: []Row{{Int(n), String_(strings.Repeat("x", pad))}}}
}

// loader returns a load func for block n that counts its calls.
func loader(n int64, nbytes int, calls *int) func() (DecodedBlock, error) {
	return func() (DecodedBlock, error) {
		*calls++
		return rowsBlock(n, nbytes), nil
	}
}

// cachedOnly looks a block up without ever filling it: load fails, so
// a miss surfaces as an error.
func cachedOnly(db *Database, tbl *Table, n int64) (DecodedBlock, bool) {
	blk, ok, err := db.LoadBlock(tbl, n, func() (DecodedBlock, error) {
		return DecodedBlock{}, fmt.Errorf("miss")
	})
	return blk, ok && err == nil
}

func TestBlockCacheDisabledByDefault(t *testing.T) {
	db := NewDatabase()
	tbl := blockCacheTable(t, db)
	calls := 0
	_, ok, err := db.LoadBlock(tbl, 1, loader(1, 100, &calls))
	if err != nil || ok {
		t.Fatalf("disabled cache: ok=%v err=%v, want ok=false", ok, err)
	}
	if calls != 0 {
		t.Fatal("disabled cache called load; the caller decodes on its own")
	}
	st := db.Stats()
	if st.BlockCacheHits != 0 || st.BlockCacheMisses != 0 {
		t.Fatalf("disabled cache counted hits/misses: %+v", st)
	}
}

func TestBlockCacheHitMissAndStats(t *testing.T) {
	db := NewDatabase()
	tbl := blockCacheTable(t, db)
	db.SetBlockCacheBytes(1 << 20)

	calls := 0
	for pass := 0; pass < 2; pass++ {
		got, ok, err := db.LoadBlock(tbl, 1, loader(1, 256, &calls))
		if err != nil || !ok {
			t.Fatalf("pass %d: ok=%v err=%v", pass, ok, err)
		}
		if len(got.Rows) != 1 || got.Rows[0][0].I != 1 {
			t.Fatalf("pass %d: cached block differs: %v", pass, got.Rows)
		}
	}
	if calls != 1 {
		t.Fatalf("load called %d times, want once (miss, then hit)", calls)
	}
	st := db.Stats()
	if st.BlockCacheHits != 1 || st.BlockCacheMisses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", st.BlockCacheHits, st.BlockCacheMisses)
	}
	if st.BlockCacheBytes != 256 {
		t.Fatalf("bytes gauge %d, want 256", st.BlockCacheBytes)
	}
	if db.CachedBlocks() != 1 {
		t.Fatalf("CachedBlocks %d, want 1", db.CachedBlocks())
	}

	// A load error caches nothing and is returned as is.
	if _, _, err := db.LoadBlock(tbl, 2, func() (DecodedBlock, error) {
		return DecodedBlock{}, fmt.Errorf("corrupt")
	}); err == nil || db.CachedBlocks() != 1 {
		t.Fatalf("failed load: err=%v, %d cached", err, db.CachedBlocks())
	}
}

func TestBlockCacheByteBudgetEviction(t *testing.T) {
	const budget = 10_000
	db := NewDatabase()
	tbl := blockCacheTable(t, db)
	db.SetBlockCacheBytes(budget)
	calls := 0
	for i := int64(0); i < 100; i++ {
		if _, _, err := db.LoadBlock(tbl, i, loader(i, 1000, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	if used := db.BlockCacheBytes(); used > budget {
		t.Fatalf("cache holds %d bytes, budget %d", used, budget)
	}
	if n := db.CachedBlocks(); n == 0 {
		t.Fatal("eviction emptied the cache entirely")
	}
	// Every surviving entry must still return its own block.
	hits := 0
	for i := int64(0); i < 100; i++ {
		if blk, ok := cachedOnly(db, tbl, i); ok {
			hits++
			if blk.Rows[0][0].I != i {
				t.Fatalf("block %d returned block %d", i, blk.Rows[0][0].I)
			}
		}
	}
	if hits != db.CachedBlocks() {
		t.Fatalf("%d hits but %d entries", hits, db.CachedBlocks())
	}
}

func TestBlockCacheSecondChance(t *testing.T) {
	db := NewDatabase()
	tbl := blockCacheTable(t, db)
	db.SetBlockCacheBytes(4000) // single shard at this size
	calls := 0
	db.LoadBlock(tbl, 1, loader(1, 1500, &calls))
	db.LoadBlock(tbl, 2, loader(2, 1500, &calls))
	// Touch block 1 so it carries the reference bit.
	if _, ok := cachedOnly(db, tbl, 1); !ok {
		t.Fatal("block 1 missing before eviction")
	}
	// Loading a third block forces an eviction; the clock should spare
	// referenced block 1 and take block 2.
	db.LoadBlock(tbl, 3, loader(3, 1500, &calls))
	if _, ok := cachedOnly(db, tbl, 1); !ok {
		t.Fatal("referenced block 1 was evicted before unreferenced block 2")
	}
	if _, ok := cachedOnly(db, tbl, 2); ok {
		t.Fatal("unreferenced block 2 survived over referenced block 1")
	}
}

func TestBlockCacheOversizedEntrySkipped(t *testing.T) {
	db := NewDatabase()
	tbl := blockCacheTable(t, db)
	db.SetBlockCacheBytes(1000)
	calls := 0
	for pass := 0; pass < 2; pass++ {
		blk, ok, err := db.LoadBlock(tbl, 1, loader(1, 5000, &calls))
		if err != nil || !ok || blk.Rows[0][0].I != 1 {
			t.Fatalf("oversized load must still return its block: ok=%v err=%v", ok, err)
		}
	}
	if calls != 2 {
		t.Fatalf("entry larger than the shard budget was cached (%d loads)", calls)
	}
	if db.BlockCacheBytes() != 0 {
		t.Fatalf("oversized entry counted %d bytes", db.BlockCacheBytes())
	}
}

func TestBlockCacheDropCaches(t *testing.T) {
	db := NewDatabase()
	tbl := blockCacheTable(t, db)
	db.SetBlockCacheBytes(1 << 20)
	calls := 0
	db.LoadBlock(tbl, 1, loader(1, 256, &calls))
	db.DropCaches()
	if db.CachedBlocks() != 0 {
		t.Fatalf("DropCaches left %d blocks cached", db.CachedBlocks())
	}
	if _, ok := cachedOnly(db, tbl, 1); ok {
		t.Fatal("hit after DropCaches")
	}
	// The configured budget survives the drop: the cache refills.
	db.LoadBlock(tbl, 1, loader(1, 256, &calls))
	if _, ok := cachedOnly(db, tbl, 1); !ok {
		t.Fatal("cache did not refill after DropCaches")
	}
}

// TestBlockCacheConcurrent hammers loads and drops from many
// goroutines; run with -race. Correctness check: block n must always
// come back as block n.
func TestBlockCacheConcurrent(t *testing.T) {
	db := NewDatabase()
	tbl := blockCacheTable(t, db)
	db.SetBlockCacheBytes(64 << 10)

	const goroutines = 8
	const rounds = 500
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			calls := 0
			for r := 0; r < rounds; r++ {
				n := int64((g*rounds + r) % 37)
				blk, _, err := db.LoadBlock(tbl, n, loader(n, 512, &calls))
				if err != nil {
					errc <- err
					return
				}
				if blk.Rows[0][0].I != n {
					errc <- fmt.Errorf("block %d returned block %d", n, blk.Rows[0][0].I)
					return
				}
				if g == 0 && r%100 == 99 {
					db.DropCaches()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestBlockCacheConcurrentMissesStayInBudget races misses on the same
// keys whose loads report different sizes (the cache may see a block
// decoded twice before either publishes). The first published entry
// must win: every shard's byte count stays within its budget and equals
// the sum of its entries, and all racers share one entry per key.
func TestBlockCacheConcurrentMissesStayInBudget(t *testing.T) {
	const budget = 8000
	db := NewDatabase()
	tbl := blockCacheTable(t, db)
	db.SetBlockCacheBytes(budget) // one shard

	const goroutines = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	got := make([][]DecodedBlock, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for n := int64(0); n < 3; n++ {
				blk, _, err := db.LoadBlock(tbl, n, func() (DecodedBlock, error) {
					return rowsBlock(n, 1000+100*g), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], blk)
			}
		}(g)
	}
	close(start)
	wg.Wait()

	bc := db.blockCache.Load()
	for i := range bc.shards {
		sh := &bc.shards[i]
		sum := 0
		for _, e := range sh.entries {
			sum += e.bytes
		}
		if sh.bytes != sum || sh.bytes > bc.shardBudget {
			t.Fatalf("shard %d counts %d bytes, entries hold %d, budget %d", i, sh.bytes, sum, bc.shardBudget)
		}
	}
	if used := db.BlockCacheBytes(); used > budget {
		t.Fatalf("cache holds %d bytes, budget %d", used, budget)
	}
	for n := 0; n < 3; n++ {
		resident, ok := cachedOnly(db, tbl, int64(n))
		if !ok {
			t.Fatalf("block %d not resident", n)
		}
		for g := range got {
			if &got[g][n].Rows[0][0] != &resident.Rows[0][0] {
				t.Fatalf("goroutine %d holds a different copy of block %d than the cache", g, n)
			}
		}
	}
}
