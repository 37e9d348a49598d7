package sqlengine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// Context cancellation (DESIGN.md §15.1): a cancelled query must stop
// mid-scan promptly, release its pinned snapshot, and leave the
// engine fully reusable. Mutations are never interrupted mid-flight —
// only rejected when the context fired before they started.

// TestCancelMidJoinReturnsFast pins the served path's latency
// contract: cancelling a long-running query returns within 50ms of
// the cancel, orders of magnitude before the query would finish.
func TestCancelMidJoinReturnsFast(t *testing.T) {
	en, db := newParallelDB(t, 3000)
	base := db.Stats().PinnedReaders

	// Non-equi nested-loop join: 9M row pairs, far beyond 50ms.
	slow := `select count(*) from pt a, pt b where a.v + b.v = 123456789`
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := en.Run(ctx, slow, nil, nil)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	start := time.Now()
	select {
	case err := <-done:
		if d := time.Since(start); d > 50*time.Millisecond {
			t.Errorf("cancelled query took %s to return, want <50ms", d)
		}
		if err == nil || !strings.Contains(err.Error(), "cancelled") {
			t.Errorf("cancelled query returned %v, want a cancellation error", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancellation error does not wrap context.Canceled: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled query still running after 2s")
	}

	// The pinned snapshot must be released on the error path.
	if got := db.Stats().PinnedReaders; got != base {
		t.Errorf("pinned readers = %d after cancellation, want %d", got, base)
	}
}

// TestCancelParallelScanLeavesEngineReusable cancels a morsel-fanout
// scan mid-drain and checks the worker pool serves the next query
// normally. The cancel races the (fast) scan, so both outcomes are
// legal — what must hold either way: no stuck workers, no leaked
// snapshot pin, identical results on re-execution.
func TestCancelParallelScanLeavesEngineReusable(t *testing.T) {
	en, db := newParallelDB(t, 20000)
	en.Workers = 4
	base := db.Stats().PinnedReaders

	q := `select grp, sum(v), count(*) from pt group by grp order by grp`
	want := dump(en.MustExec(q))

	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Duration(i%4) * 100 * time.Microsecond)
			cancel()
		}()
		res, err := en.Run(ctx, q, nil, nil)
		if err != nil {
			if !strings.Contains(err.Error(), "cancelled") {
				t.Fatalf("run %d: unexpected error: %v", i, err)
			}
		} else if got := dump(res); got != want {
			t.Fatalf("run %d: completed result diverged", i)
		}
		cancel()
	}

	if got := db.Stats().PinnedReaders; got != base {
		t.Errorf("pinned readers = %d after cancelled runs, want %d", got, base)
	}
	// The pool must be fully reusable after every cancellation.
	if got := dump(en.MustExec(q)); got != want {
		t.Error("engine returned a different result after cancellations")
	}
}

// TestCancelledContextRejectsMutation: a context that fired before
// the statement starts rejects DML without applying anything; a
// running mutation is never cut short.
func TestCancelledContextRejectsMutation(t *testing.T) {
	en, _ := newParallelDB(t, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := en.Run(ctx, `insert into pt values (999999, 1, 'gx', 1)`, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("pre-cancelled context did not reject the insert: %v", err)
	}
	res := en.MustExec(`select count(*) from pt where id = 999999`)
	if res.Rows[0][0].I != 0 {
		t.Error("rejected insert still applied rows")
	}
	// A live context lets the same statement through.
	if _, err := en.Run(context.Background(), `insert into pt values (999999, 1, 'gx', 1)`, nil, nil); err != nil {
		t.Fatal(err)
	}
}
