package sqlengine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"archis/internal/relstore"
)

// TestAppendKeyCollisionRegression pins the composite-key encoding
// bug: the old terminator-based scheme encoded ("a\x00\x03b","c") and
// ("a","b\x00\x03c") to the same bytes (0x03 is the TypeString kind
// tag), which made hash joins and DISTINCT conflate distinct keys.
func TestAppendKeyCollisionRegression(t *testing.T) {
	pairs := [][2][]relstore.Value{
		{
			{relstore.String_("a\x00\x03b"), relstore.String_("c")},
			{relstore.String_("a"), relstore.String_("b\x00\x03c")},
		},
		{ // splitting across the separator position
			{relstore.String_("ab"), relstore.String_("c")},
			{relstore.String_("a"), relstore.String_("bc")},
		},
		{ // NULL vs empty string
			{relstore.Null, relstore.String_("x")},
			{relstore.String_(""), relstore.String_("x")},
		},
		{ // int 1 vs string "1"
			{relstore.Int(1)},
			{relstore.String_("1")},
		},
		{ // bytes vs string with identical payload
			{relstore.Bytes([]byte("ab"))},
			{relstore.String_("ab")},
		},
	}
	for i, p := range pairs {
		a := appendKey(nil, p[0])
		b := appendKey(nil, p[1])
		if string(a) == string(b) {
			t.Errorf("pair %d: distinct keys %v and %v encode identically (%x)", i, p[0], p[1], a)
		}
	}
	// And equal values must still encode equally (scratch reuse included).
	scratch := appendKey(nil, pairs[0][0])
	scratch = appendKey(scratch[:0], pairs[0][0])
	if string(scratch) != string(appendKey(nil, pairs[0][0])) {
		t.Error("scratch reuse changed the encoding")
	}
}

// TestHashJoinAdversarialKeys runs a two-column equi join whose key
// values are built to collide under the old encoding and checks the
// join returns exactly the true matches. It then joins one-row tables
// whose keys differ in kind but compare equal — INT = DATE, INT =
// FLOAT, VARCHAR = DATE, INT = VARCHAR — and requires the row under
// every forced plan: a hash join on kind-tagged keys returned none
// while a range filter returned it.
func TestHashJoinAdversarialKeys(t *testing.T) {
	en := New(relstore.NewDatabase())
	en.MustExec(`create table l (a VARCHAR, b VARCHAR, tag INT)`)
	en.MustExec(`create table r (a VARCHAR, b VARCHAR, tag INT)`)
	// Two left rows whose (a,b) differ but old-encode identically, and
	// the matching right rows.
	rows := []struct {
		a, b string
		tag  int64
	}{
		{"a\x00\x03b", "c", 1},
		{"a", "b\x00\x03c", 2},
	}
	for _, r := range rows {
		if err := en.InsertRow("l", relstore.Row{relstore.String_(r.a), relstore.String_(r.b), relstore.Int(r.tag)}); err != nil {
			t.Fatal(err)
		}
		if err := en.InsertRow("r", relstore.Row{relstore.String_(r.a), relstore.String_(r.b), relstore.Int(r.tag + 10)}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := en.Exec(`select l.tag, r.tag from l, r where l.a = r.a and l.b = r.b order by l.tag`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("join returned %d rows, want 2 (old encoding returns 4): %v", len(res.Rows), res.Rows)
	}
	for i, want := range []int64{11, 12} {
		if res.Rows[i][0].I != want-10 || res.Rows[i][1].I != want {
			t.Errorf("row %d: got (%d,%d), want (%d,%d)", i, res.Rows[i][0].I, res.Rows[i][1].I, want-10, want)
		}
	}

	for _, ddl := range []string{
		`create table ki (k INT)`, `insert into ki values (10)`,
		`create table kd (d DATE)`, `insert into kd values (DATE '1970-01-11')`, `create index ix_kd on kd (d)`,
		`create table kf (f FLOAT)`, `insert into kf values (10.0)`,
		`create table ks (s VARCHAR)`, `insert into ks values ('10')`,
		`create table kt (s VARCHAR)`, `insert into kt values ('1970-01-11')`,
		`create table kn (f FLOAT)`, `insert into kn values (1.0)`, `insert into kn values ('NaN')`,
	} {
		en.MustExec(ddl)
	}
	// NaN equals NaN and no other float (DESIGN.md §12), under the
	// hash join's keys and the nested loop's filter alike.
	nan := `select a.f, b.f from kn a, kn b where a.f = b.f`
	if got := queryStrings(t, en, nan); len(got) != 2 {
		t.Errorf("%s = %v, want two rows", nan, got)
	}
	checkPlans(t, en, nan)
	for _, q := range []string{
		`select a.k from ki a, kd b where a.k = b.d`,
		`select a.k from ki a, kf b where a.k = b.f`,
		`select a.s from kt a, kd b where a.s = b.d`,
		`select a.k from ki a, ks b where a.k = b.s`,
	} {
		if got := queryStrings(t, en, q); len(got) != 1 {
			t.Errorf("%s = %v, want one row", q, got)
		}
		checkPlans(t, en, q)
	}
}

// TestDistinctAdversarialKeys is the same collision through the
// DISTINCT path: two distinct output rows must both survive.
func TestDistinctAdversarialKeys(t *testing.T) {
	en := New(relstore.NewDatabase())
	en.MustExec(`create table d (a VARCHAR, b VARCHAR)`)
	for _, r := range [][2]string{{"a\x00\x03b", "c"}, {"a", "b\x00\x03c"}, {"a", "b\x00\x03c"}} {
		if err := en.InsertRow("d", relstore.Row{relstore.String_(r[0]), relstore.String_(r[1])}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := en.Exec(`select distinct a, b from d`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("DISTINCT kept %d rows, want 2: %v", len(res.Rows), res.Rows)
	}
}

// buildJoinDB returns an engine with two sealed multi-page tables
// shaped for a non-indexed hash join (no index on the join key of the
// inner side, so the fused hashJoinFirst path runs).
func buildJoinDB(t testing.TB, rows int) *Engine {
	t.Helper()
	en := New(relstore.NewDatabase())
	en.MustExec(`create table big (id INT, grp INT, val INT)`)
	en.MustExec(`create table small (grp INT, label VARCHAR)`)
	for i := 0; i < rows; i++ {
		if err := en.InsertRow("big", relstore.Row{
			relstore.Int(int64(i)), relstore.Int(int64(i % 17)), relstore.Int(int64(i * 3)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for g := 0; g < 17; g++ {
		if err := en.InsertRow("small", relstore.Row{
			relstore.Int(int64(g)), relstore.String_(fmt.Sprintf("g%02d", g)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if tb, ok := en.DB.Table("big"); ok {
		tb.Flush()
	}
	if ts, ok := en.DB.Table("small"); ok {
		ts.Flush()
	}
	return en
}

// TestHashJoinParallelMatchesSerial checks the fused morsel-parallel
// probe returns byte-identical results (same rows, same order) as the
// serial executor, including join stats accounting.
func TestHashJoinParallelMatchesSerial(t *testing.T) {
	en := buildJoinDB(t, 4000)
	q := `select big.id, big.val, small.label from big, small where big.grp = small.grp and big.val >= 300 order by big.id`
	en.Workers = 1
	serial, err := en.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	en.DB.ResetStats()
	en.Workers = 4
	par, err := en.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != len(par.Rows) {
		t.Fatalf("serial %d rows, parallel %d rows", len(serial.Rows), len(par.Rows))
	}
	for i := range serial.Rows {
		for j := range serial.Rows[i] {
			if compareValues(serial.Rows[i][j], par.Rows[i][j]) != 0 {
				t.Fatalf("row %d col %d differs: %v vs %v", i, j, serial.Rows[i][j], par.Rows[i][j])
			}
		}
	}
	st := en.DB.Stats()
	if st.JoinRowsBorrowed == 0 {
		t.Error("parallel join did not count borrowed probe rows")
	}
	// The join is the statement's last fold: its combined rows stream
	// through a reused buffer into the projection, so none is copied.
	if st.JoinRowsCopied != 0 {
		t.Errorf("JoinRowsCopied=%d, want 0 (the last fold streams its rows)", st.JoinRowsCopied)
	}
}

// TestHashJoinNullKeysNeverMatch pins SQL semantics on the new path:
// NULL join keys match nothing on either side.
func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	en := New(relstore.NewDatabase())
	en.MustExec(`create table l (k INT, v INT)`)
	en.MustExec(`create table r (k INT, w INT)`)
	for _, row := range []relstore.Row{
		{relstore.Int(1), relstore.Int(10)},
		{relstore.Null, relstore.Int(20)},
	} {
		if err := en.InsertRow("l", row); err != nil {
			t.Fatal(err)
		}
	}
	for _, row := range []relstore.Row{
		{relstore.Int(1), relstore.Int(100)},
		{relstore.Null, relstore.Int(200)},
	} {
		if err := en.InsertRow("r", row); err != nil {
			t.Fatal(err)
		}
	}
	res, err := en.Exec(`select l.v, r.w from l, r where l.k = r.k`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 10 || res.Rows[0][1].I != 100 {
		t.Fatalf("NULL keys leaked into the join: %v", res.Rows)
	}
}

func probeBenchTable() (*joinTable, []equiJoin) {
	inner := make([]relstore.Row, 64)
	joins := []equiJoin{{boundPos: 1, newPos: 0}}
	for i := range inner {
		inner[i] = relstore.Row{relstore.Int(int64(i)), relstore.String_("x")}
	}
	return buildJoinTable(inner, joins, nil), joins
}

// BenchmarkHashJoinProbeMiss measures the pure probe path: every key
// misses, so the scratch-encoded lookup must be allocation-free
// (mirroring BenchmarkScanBorrow — expect 0 allocs/op).
func BenchmarkHashJoinProbeMiss(b *testing.B) {
	jt, joins := probeBenchTable()
	probeRows := make([]relstore.Row, 1024)
	for i := range probeRows {
		probeRows[i] = relstore.Row{relstore.Int(int64(i)), relstore.Int(int64(i%640) + 1000)}
	}
	sc := newProbeScratch(joins)
	fo := &foldOut{rows: make([]relstore.Row, 0, 4096)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fo.rows = fo.rows[:0]
		for _, r := range probeRows {
			_, _ = jt.probe(r, joins, sc, fo)
		}
	}
}

// BenchmarkHashJoinProbeMixed has one key in eight match: the only
// allocations are the combined rows an intermediate fold materializes.
func BenchmarkHashJoinProbeMixed(b *testing.B) {
	jt, joins := probeBenchTable()
	probeRows := make([]relstore.Row, 1024)
	for i := range probeRows {
		probeRows[i] = relstore.Row{relstore.Int(int64(i)), relstore.Int(int64(i % 512))}
	}
	sc := newProbeScratch(joins)
	fo := &foldOut{rows: make([]relstore.Row, 0, 4096)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fo.rows = fo.rows[:0]
		for _, r := range probeRows {
			_, _ = jt.probe(r, joins, sc, fo)
		}
	}
}

// batchTable is a virtual table that also streams column batches, like
// the compressed store: ScanMorsels is the row path, ScanBatches the
// batch drain. It counts row reads and records every needed-column set, and
// fills only the needed columns of a batch, so a reader that skips a
// column it uses sees stale values and a wrong answer.
type batchTable struct {
	sliceTable
	per        int // rows per batch morsel
	scans      atomic.Int64
	mu         sync.Mutex
	neededSeen [][]bool
}

func (b *batchTable) ScanMorsels(bounds []relstore.ZoneBound) ([]relstore.MorselFunc, error) {
	b.scans.Add(1)
	return b.sliceTable.ScanMorsels(bounds)
}

func (b *batchTable) ScanBatches(_ []relstore.ZoneBound, needed []bool) ([]relstore.BatchFunc, error) {
	b.mu.Lock()
	b.neededSeen = append(b.neededSeen, needed)
	b.mu.Unlock()
	ncols := len(b.schema.Columns)
	var out []relstore.BatchFunc
	for lo := 0; lo < len(b.rows); lo += b.per {
		chunk := b.rows[lo:min(lo+b.per, len(b.rows))]
		out = append(out, func(fn func(*relstore.ColBatch) bool) (bool, error) {
			var batch relstore.ColBatch
			batch.SetFromRows(chunk, ncols, needed)
			return !fn(&batch), nil
		})
	}
	return out, nil
}

// TestJoinReadsBatchSources pins the routing of join inputs: with
// columnar mode on, every input of a multi-source SELECT over a batch
// source goes through the batch drain — no row read happens — and
// the answers equal the row path's at every worker count. Every forced
// plan — hash joins building either side, the fused first probe,
// nested-loop joins, FROM order, a row read of any input — answers as
// the planned one. Each read decodes the columns the statement reads
// from its own alias: column u only where a star or a.u names it.
func TestJoinReadsBatchSources(t *testing.T) {
	bt := &batchTable{per: 7, sliceTable: sliceTable{schema: relstore.NewSchema("t",
		relstore.Col("k", relstore.TypeInt), relstore.Col("v", relstore.TypeString),
		relstore.Col("w", relstore.TypeInt), relstore.Col("u", relstore.TypeInt))}}
	for i := 0; i < 60; i++ {
		k := relstore.Int(int64(i % 9))
		if i%11 == 0 {
			k = relstore.Null
		}
		bt.rows = append(bt.rows, relstore.Row{k, relstore.String_(fmt.Sprintf("v%d", i)),
			relstore.Int(int64(i * 7 % 13)), relstore.Int(int64(i))})
	}
	en := New(relstore.NewDatabase())
	en.RegisterVirtual("t", bt)
	queries := []struct {
		sql   string
		uRead int // reads that must decode column u
	}{
		{`select a.k, b.v from t a, t b where a.k = b.k and a.w > 3`, 0},
		{`select a.v, b.v from t a, t b where a.k = b.k and b.w >= a.w`, 0},
		{`select a.k, b.v from t a, t b where a.k = b.k and b.k = 2`, 0},
		{`select count(*), max(b.w - a.w) from t a, t b where a.w < b.w and a.k = 1`, 0},
		{`select * from t a, t b where a.k = b.k and a.w = 5`, 2},
		{`select xmlelement(name "r", xmlattributes(a.k as "k"), b.v) from t a, t b where a.k = b.k and a.w < 2 order by b.v`, 0},
		{`select a.u, c.v from t a, t b, t c where a.k = b.k and b.w = c.w and a.w = 1 and c.k > 4`, 1},
	}
	for _, workers := range []int{1, 4} {
		en.Workers = workers
		for _, tc := range queries {
			q := tc.sql
			en.Columnar = false
			want := queryStrings(t, en, q)
			if bt.scans.Load() == 0 {
				t.Fatalf("row path never read row morsels: %s", q)
			}
			bt.scans.Store(0)
			bt.neededSeen = nil
			en.Columnar = true
			got := queryStrings(t, en, q)
			if n := bt.scans.Load(); n != 0 {
				t.Errorf("workers=%d: %s: %d row reads with columnar on, want 0", workers, q, n)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("workers=%d: %s:\nbatch %v\nrows  %v", workers, q, got, want)
			}
			if len(bt.neededSeen) == 0 {
				t.Errorf("%s: no batch read with columnar on", q)
			}
			uRead := 0
			for _, needed := range bt.neededSeen {
				if needed == nil || needed[3] {
					uRead++
				}
			}
			if uRead != tc.uRead {
				t.Errorf("%s: %d reads decoded column u, want %d: %v", q, uRead, tc.uRead, bt.neededSeen)
			}
			checkPlans(t, en, q)
		}
	}
}

// TestJoinEmptyBatchSource joins batch sources that stream no morsels
// at all: every read — build side, streamed probe, nested-loop inner —
// yields zero parts, and the aggregate still answers one row.
func TestJoinEmptyBatchSource(t *testing.T) {
	bt := &batchTable{per: 4, sliceTable: sliceTable{schema: relstore.NewSchema("t",
		relstore.Col("k", relstore.TypeInt), relstore.Col("w", relstore.TypeInt))}}
	en := New(relstore.NewDatabase())
	en.RegisterVirtual("t", bt)
	for _, workers := range []int{1, 4} {
		en.Workers = workers
		for _, tc := range []struct{ sql, want string }{
			{`select count(*) from t a, t b where a.k = b.k`, "[0]"},
			{`select count(*) from t a, t b where a.w < b.w`, "[0]"},
			{`select a.k from t a, t b, t c where a.k = b.k and b.w = c.w`, "[]"},
		} {
			if got := fmt.Sprint(queryStrings(t, en, tc.sql)); got != tc.want {
				t.Errorf("workers=%d: %s = %s, want %s", workers, tc.sql, got, tc.want)
			}
		}
	}
}
