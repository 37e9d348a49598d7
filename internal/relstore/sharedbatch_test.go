package relstore_test

import (
	"hash/fnv"
	"math"
	"testing"

	"archis/internal/bench"
	"archis/internal/core"
	"archis/internal/dataset"
	"archis/internal/relstore"
)

// TestBlockCacheSharedBatchesUnchanged checksums every cached batch,
// runs the query suite from concurrent readers with morsel parallelism
// (selection kernels narrow their own copies of the shared batches),
// and requires every checksum to be unchanged. Run with -race: a
// reader writing a shared vector or selection also shows up as a race.
func TestBlockCacheSharedBatchesUnchanged(t *testing.T) {
	e, err := bench.Build(dataset.Config{
		Employees:         100,
		Years:             5,
		Departments:       4,
		Seed:              11,
		MonthlyUpdateFrac: 0.25,
		TurnoverFrac:      0.05,
	}, bench.Options{Layout: core.LayoutCompressed, MinSegmentRows: 40, Compress: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []string{"employee_name", "employee_salary", "employee_title", "employee_deptno"} {
		if st, ok := e.Sys.SegmentStore(at); ok {
			if err := st.ArchiveNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Sys.CompressFrozen(); err != nil {
		t.Fatal(err)
	}
	e.Sys.DB.SetBlockCacheBytes(32 << 20)
	queries := append(e.SuiteQueries(1), e.SnapshotQueries(4)...)
	if _, err := e.RunBatch(queries, 1); err != nil {
		t.Fatal(err)
	}

	batches := e.Sys.DB.CachedBatches()
	if len(batches) == 0 {
		t.Fatal("warm-up cached no batches")
	}
	before := make([]uint64, len(batches))
	for i, b := range batches {
		before[i] = checksum(b)
	}
	for round := 0; round < 3; round++ {
		if _, err := e.RunBatch(queries, 4); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(e.Sys.DB.CachedBatches()); n != len(batches) {
		t.Fatalf("cache holds %d batches after the scans, %d before", n, len(batches))
	}
	for i, b := range batches {
		if got := checksum(b); got != before[i] {
			t.Fatalf("cached batch %d changed under concurrent scans", i)
		}
	}
}

// checksum hashes a batch's shape, selection and every vector payload.
func checksum(b *relstore.ColBatch) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		for i := range buf {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(b.N))
	put(uint64(len(b.Cols)))
	put(uint64(len(b.Sel)))
	for _, s := range b.Sel {
		put(uint64(s))
	}
	for c := range b.Cols {
		v := &b.Cols[c]
		if v.Present {
			put(1)
		}
		put(uint64(v.Kind))
		for _, k := range v.Kinds {
			put(uint64(k))
		}
		for _, x := range v.I {
			put(uint64(x))
		}
		for _, f := range v.F {
			put(math.Float64bits(f))
		}
		for _, s := range v.S {
			h.Write([]byte(s))
			put(uint64(len(s)))
		}
		for _, a := range v.Aux {
			h.Write(relstore.EncodeRow(nil, relstore.Row{a}, true))
		}
	}
	return h.Sum64()
}
