package segment

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"archis/internal/htable"
	"archis/internal/relstore"
	"archis/internal/temporal"
)

func attrSchema() relstore.Schema {
	return relstore.NewSchema("employee_salary",
		relstore.Col("id", relstore.TypeInt),
		relstore.Col("salary", relstore.TypeInt),
		relstore.Col("tstart", relstore.TypeDate),
		relstore.Col("tend", relstore.TypeDate))
}

type testClock struct{ d temporal.Date }

func (c *testClock) now() temporal.Date { return c.d }

func newTestStore(t *testing.T, umin float64, minRows int) (*Store, *testClock, *relstore.Database) {
	t.Helper()
	db := relstore.NewDatabase()
	clock := &testClock{d: temporal.MustParseDate("1990-01-01")}
	s, err := NewStore(db, attrSchema(), Config{Umin: umin, MinSegmentRows: minRows, Clock: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	return s, clock, db
}

func TestConfigValidation(t *testing.T) {
	db := relstore.NewDatabase()
	if _, err := NewStore(db, attrSchema(), Config{Umin: 0, Clock: func() temporal.Date { return 0 }}); err == nil {
		t.Error("Umin=0 accepted")
	}
	if _, err := NewStore(db, attrSchema(), Config{Umin: 1.5, Clock: func() temporal.Date { return 0 }}); err == nil {
		t.Error("Umin>1 accepted")
	}
	if _, err := NewStore(db, attrSchema(), Config{Umin: 0.4}); err == nil {
		t.Error("missing clock accepted")
	}
}

func TestAppendCloseBasics(t *testing.T) {
	s, clock, _ := newTestStore(t, 0.4, 100000)
	for i := int64(0); i < 10; i++ {
		if err := s.Append(i, relstore.Int(100+i), clock.d, htable.DefaultValid(clock.d)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Usefulness() != 1 {
		t.Errorf("U = %v", s.Usefulness())
	}
	clock.d = clock.d.AddDays(30)
	if err := s.Close(3, clock.d); err != nil {
		t.Fatal(err)
	}
	if got := s.Usefulness(); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("U after close = %v", got)
	}
	// Closing an id with no live version is a no-op.
	if err := s.Close(999, clock.d); err != nil {
		t.Fatal(err)
	}
	// Re-append after close works.
	if err := s.Append(3, relstore.Int(200), clock.d.AddDays(1), htable.DefaultValid(clock.d.AddDays(1))); err != nil {
		t.Fatal(err)
	}
	// Duplicate live append fails.
	if err := s.Append(3, relstore.Int(300), clock.d, htable.DefaultValid(clock.d)); err == nil {
		t.Error("duplicate live append accepted")
	}
}

// simulateUpdates runs rounds of salary changes over n employees and
// returns the store.
func simulateUpdates(t *testing.T, s *Store, clock *testClock, n, rounds int) {
	t.Helper()
	day := clock.d
	for i := int64(0); i < int64(n); i++ {
		if err := s.Append(i, relstore.Int(1000), day, htable.DefaultValid(day)); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rounds; r++ {
		day = day.AddDays(30)
		clock.d = day
		for i := int64(0); i < int64(n); i++ {
			if err := s.Close(i, day.AddDays(-1)); err != nil {
				t.Fatal(err)
			}
			if err := s.Append(i, relstore.Int(int64(1000+r)), day, htable.DefaultValid(day)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestUsefulnessTriggersArchive(t *testing.T) {
	s, clock, _ := newTestStore(t, 0.4, 100)
	simulateUpdates(t, s, clock, 100, 5)
	if s.Archives() == 0 {
		t.Fatal("no archive operations happened")
	}
	segs, err := s.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != s.Archives() {
		t.Errorf("directory has %d segments, %d archives", len(segs), s.Archives())
	}
	// Segment intervals are ordered and non-overlapping.
	for i := 1; i < len(segs); i++ {
		if segs[i].Start <= segs[i-1].End {
			t.Errorf("segments overlap: %v then %v", segs[i-1], segs[i])
		}
	}
	// Archiving keeps the live segment's usefulness at or above Umin.
	if s.Usefulness() < 0.4 {
		t.Errorf("post-archive U = %v, below Umin", s.Usefulness())
	}
}

func TestHistoryPreservedAcrossArchives(t *testing.T) {
	s, clock, _ := newTestStore(t, 0.4, 50)
	n, rounds := 50, 6
	simulateUpdates(t, s, clock, n, rounds)
	if s.Archives() == 0 {
		t.Fatal("expected archives")
	}
	// Every employee must have exactly rounds+1 logical versions with
	// contiguous intervals.
	versions := map[int64][]temporal.Interval{}
	vals := map[int64][]int64{}
	err := s.ScanHistory(func(id int64, v relstore.Value, start, end temporal.Date, _ temporal.Interval) bool {
		versions[id] = append(versions[id], temporal.Interval{Start: start, End: end})
		vals[id] = append(vals[id], v.I)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != n {
		t.Fatalf("ids = %d", len(versions))
	}
	for id, ivs := range versions {
		if len(ivs) != rounds+1 {
			t.Fatalf("id %d has %d versions, want %d", id, len(ivs), rounds+1)
		}
		merged := temporal.CoalesceIntervals(ivs)
		if len(merged) != 1 {
			t.Errorf("id %d history not contiguous: %v", id, ivs)
		}
		if !merged[0].IsCurrent() {
			t.Errorf("id %d lost its live version", id)
		}
	}
	_ = vals
}

func TestSnapshotCorrectAfterArchive(t *testing.T) {
	s, clock, _ := newTestStore(t, 0.4, 50)
	simulateUpdates(t, s, clock, 50, 6)
	// Snapshot in the middle of round 3 (day 30*3+10): salary should
	// be 1000+2 for everyone.
	at := temporal.MustParseDate("1990-01-01").AddDays(30*3 + 10)
	segs, err := s.SegmentsFor(at, at)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("snapshot should touch one segment, got %v", segs)
	}
	count := 0
	err = s.Table().Scan(
		[]relstore.ZoneBound{{Col: 0, Op: "=", Bound: segs[0]}},
		func(_ relstore.RID, row relstore.Row) bool {
			if row[0].I == segs[0] && row[3].Date() <= at && at <= row[4].Date() {
				if row[2].I != 1002 {
					t.Fatalf("wrong salary at snapshot: %v", row)
				}
				count++
			}
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Errorf("snapshot rows = %d", count)
	}
}

func TestSegmentPruningSavesReads(t *testing.T) {
	s, clock, db := newTestStore(t, 0.4, 200)
	simulateUpdates(t, s, clock, 200, 10)
	if s.Archives() < 2 {
		t.Fatalf("want >=2 archives, got %d", s.Archives())
	}
	at := temporal.MustParseDate("1990-02-15")
	segs, _ := s.SegmentsFor(at, at)
	db.DropCaches()
	db.ResetStats()
	_ = s.Table().Scan(
		[]relstore.ZoneBound{{Col: 0, Op: "=", Bound: segs[0]}},
		func(_ relstore.RID, _ relstore.Row) bool { return true })
	pruned := db.Stats()
	db.DropCaches()
	db.ResetStats()
	_ = s.Table().Scan(nil, func(_ relstore.RID, _ relstore.Row) bool { return true })
	full := db.Stats()
	if pruned.BlockReads >= full.BlockReads {
		t.Errorf("pruned scan read %d blocks, full scan %d", pruned.BlockReads, full.BlockReads)
	}
	if pruned.PagesSkipped == 0 {
		t.Error("no pages skipped")
	}
}

func TestStorageBoundHolds(t *testing.T) {
	for _, umin := range []float64{0.2, 0.26, 0.36, 0.4} {
		s, clock, _ := newTestStore(t, umin, 100)
		n, rounds := 100, 12
		simulateUpdates(t, s, clock, n, rounds)
		noSeg := n * (rounds + 1) // logical version count
		total := s.Table().LiveRows()
		ratio := float64(total) / float64(noSeg)
		bound := StorageBound(umin)
		// Equation 3 bounds the ratio of archived-segment tuples; the
		// carried live copies add at most one extra copy of the live
		// set, so allow that slack.
		slack := float64(n) / float64(noSeg)
		if ratio > bound+slack+1e-9 {
			t.Errorf("Umin=%v: ratio %.3f exceeds bound %.3f (+%.3f)", umin, ratio, bound, slack)
		}
		// Lower Umin must not produce more segments than higher Umin
		// under the same workload (checked loosely via count).
	}
}

func TestMoreSegmentsWithHigherUmin(t *testing.T) {
	counts := map[float64]int{}
	for _, umin := range []float64{0.2, 0.4} {
		s, clock, _ := newTestStore(t, umin, 100)
		simulateUpdates(t, s, clock, 100, 12)
		counts[umin] = s.Archives()
	}
	if counts[0.4] <= counts[0.2] {
		t.Errorf("expected more segments at Umin=0.4: %v", counts)
	}
}

func TestEquationModels(t *testing.T) {
	if got := StorageBound(0.4); math.Abs(got-1/0.6) > 1e-12 {
		t.Errorf("StorageBound(0.4) = %v", got)
	}
	// Pure updates: Tseg = N0(1-U)/(U·Rupd).
	got := SegmentLength(1000, 0.4, 0, 0, 10)
	want := 1000 * 0.6 / (0.4 * 10)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("SegmentLength = %v, want %v", got, want)
	}
	// Higher usefulness threshold → shorter segments.
	if SegmentLength(1000, 0.6, 0, 0, 10) >= got {
		t.Error("higher Umin should shorten segments")
	}
	// Higher insertion rate → longer segments.
	if SegmentLength(1000, 0.4, 5, 0, 10) <= got {
		t.Error("insertions should lengthen segments")
	}
	// Insert-dominated workloads never fill a segment.
	if SegmentLength(1000, 0.4, 100, 0, 1) != -1 {
		t.Error("non-positive denominator should return -1")
	}
}

func TestSegmentsForLiveOnly(t *testing.T) {
	s, clock, _ := newTestStore(t, 0.4, 1000000)
	_ = s.Append(1, relstore.Int(1), clock.d, htable.DefaultValid(clock.d))
	segs, err := s.SegmentsFor(clock.d, clock.d)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0] != s.LiveSegment() {
		t.Errorf("live-only = %v", segs)
	}
}

// TestNewestFirstMatchesStableSort checks the index fast path's
// ordering against the stable sort it replaces, on the ascending RID
// order a probe returns (runs reversed in place) and on shuffled input
// (the sort fallback): same rows, same order, ties in input order.
func TestNewestFirstMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		rows := make([]relstore.Row, n)
		seg := int64(1)
		for i := range rows {
			if rng.Intn(3) == 0 {
				seg += int64(1 + rng.Intn(2))
			}
			rows[i] = relstore.Row{relstore.Int(seg), relstore.Int(int64(i))}
		}
		if trial%2 == 1 {
			rng.Shuffle(n, func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		}
		want := append([]relstore.Row(nil), rows...)
		sort.SliceStable(want, func(i, j int) bool { return want[i][0].I > want[j][0].I })
		got := newestFirst(rows)
		for i := range want {
			if got[i][0].I != want[i][0].I || got[i][1].I != want[i][1].I {
				t.Fatalf("trial %d: row %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}
