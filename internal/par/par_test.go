package par

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEffectiveWorkers(t *testing.T) {
	want := runtime.GOMAXPROCS(0)
	if got := (Parallelism{Workers: 3}).EffectiveWorkers(); got != min(3, want) {
		t.Fatalf("Workers=3: got %d, want min(3, GOMAXPROCS %d)", got, want)
	}
	if got := (Parallelism{Workers: 1}).EffectiveWorkers(); got != 1 {
		t.Fatalf("Workers=1: got %d", got)
	}
	if got := (Parallelism{Workers: 4 * want}).EffectiveWorkers(); got != want {
		t.Fatalf("Workers=4*GOMAXPROCS: got %d, want GOMAXPROCS %d", got, want)
	}
	if got := (Parallelism{}).EffectiveWorkers(); got != want {
		t.Fatalf("zero value: got %d, want GOMAXPROCS %d", got, want)
	}
	if got := (Parallelism{Workers: -1}).EffectiveWorkers(); got != want {
		t.Fatalf("negative: got %d, want GOMAXPROCS %d", got, want)
	}
}

// TestRunGridRunsEveryTaskOnce checks the dispatch accounting: every index
// exactly once, with no error, for any worker count.
func TestRunGridRunsEveryTaskOnce(t *testing.T) {
	for _, n := range []int{37, 50} {
		for _, workers := range []int{1, 3, 4, 16} {
			counts := make([]atomic.Int32, n)
			err := RunGrid(n, workers, func(i int) error {
				counts[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: task %d ran %d times", n, workers, i, got)
				}
			}
		}
	}
}

// slowAfter makes every task past the failing index last two
// milliseconds, so undispatched work remains when the failure lands.
// Without it the other workers can legitimately run every trivial task
// before the failing worker stores its stop flag — each of those tasks was
// handed out before the flag was set, which RunGrid's contract allows — and
// the "fewer than all tasks ran" assertions below would flake.
func slowAfter(i, failing int) {
	if i > failing {
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRunGridCancelsOnError checks the failure path: after the first task
// error the remaining undispatched tasks are skipped, and the lowest-index
// recorded error is surfaced.
func TestRunGridCancelsOnError(t *testing.T) {
	const n = 200
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var executed atomic.Int32
		err := RunGrid(n, workers, func(i int) error {
			executed.Add(1)
			if i == 5 {
				return fmt.Errorf("task %d: %w", i, boom)
			}
			slowAfter(i, 5)
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		if got := executed.Load(); got >= n {
			t.Fatalf("workers=%d: all %d tasks ran despite the error at index 5", workers, got)
		}
		if workers == 1 && executed.Load() != 6 {
			t.Fatalf("sequential path ran %d tasks, want exactly 6", executed.Load())
		}
	}
}

// TestRunGridReturnsLowestIndexError: when several tasks fail, the error a
// sequential loop would have hit first (among those that ran) is the one
// surfaced.
func TestRunGridReturnsLowestIndexError(t *testing.T) {
	err := RunGrid(8, 4, func(i int) error {
		return fmt.Errorf("task %d failed", i)
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if !strings.Contains(err.Error(), "task 0 failed") &&
		!strings.Contains(err.Error(), "task 1 failed") &&
		!strings.Contains(err.Error(), "task 2 failed") &&
		!strings.Contains(err.Error(), "task 3 failed") {
		t.Fatalf("err = %v, want one of the first dispatched tasks", err)
	}
}

// TestRunGridRecoversPanic: a panicking task must come back as an error
// naming the failing index and the panic value — on both the sequential and
// pooled paths — not as a process-killing stack trace, and with enough work
// left behind it (cancels) it cancels the undispatched tasks like an error
// does. Run under -race this also proves the recovery path itself is
// race-free.
func TestRunGridRecoversPanic(t *testing.T) {
	cases := []struct {
		n, panicAt int
		value      string
		cancels    bool
	}{
		{12, 5, "shard blew up", false},
		{40, 7, "bad grid point", true},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			var executed atomic.Int32
			err := RunGrid(c.n, workers, func(i int) error {
				executed.Add(1)
				if i == c.panicAt {
					panic(c.value)
				}
				slowAfter(i, c.panicAt)
				return nil
			})
			if err == nil {
				t.Fatalf("n=%d workers=%d: panic was swallowed", c.n, workers)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("task %d panicked", c.panicAt)) ||
				!strings.Contains(err.Error(), c.value) {
				t.Fatalf("n=%d workers=%d: err = %v, want the panicking task's index and value", c.n, workers, err)
			}
			if got := executed.Load(); c.cancels && got >= int32(c.n) {
				t.Fatalf("n=%d workers=%d: all %d tasks ran despite the panic at index %d", c.n, workers, got, c.panicAt)
			}
		}
	}
	// A non-string panic value must survive the conversion too.
	err := RunGrid(3, 1, func(i int) error {
		if i == 2 {
			panic(errors.New("wrapped cause"))
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "task 2 panicked: wrapped cause") {
		t.Fatalf("err = %v, want task 2's panic value formatted in", err)
	}
}

// TestRunGridErrorAtLastIndex: an error at the final dispatched index has no
// undispatched tasks left to cancel; it must still be recorded and surfaced
// after the join rather than lost to an already-drained queue.
func TestRunGridErrorAtLastIndex(t *testing.T) {
	const n = 50
	for _, workers := range []int{1, 4} {
		err := RunGrid(n, workers, func(i int) error {
			if i == n-1 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("task %d failed", n-1)) {
			t.Fatalf("workers=%d: err = %v, want the last index's error", workers, err)
		}
	}
}

// TestRunGridConcurrentErrorsLowestWins forces two workers to fail at the
// same instant — both tasks rendezvous at a barrier before erroring, so
// neither failure can cancel the other — and checks the join still reports
// the lowest-index error, exactly what a sequential loop would have hit.
func TestRunGridConcurrentErrorsLowestWins(t *testing.T) {
	var barrier sync.WaitGroup
	barrier.Add(2)
	err := RunGrid(2, 2, func(i int) error {
		barrier.Done()
		barrier.Wait() // both tasks are now committed to failing
		return fmt.Errorf("task %d failed", i)
	})
	if err == nil || !strings.Contains(err.Error(), "task 0 failed") {
		t.Fatalf("err = %v, want task 0's error to win deterministically", err)
	}
}

func TestRunGridReturnsTaskError(t *testing.T) {
	boom := errors.New("boom")
	err := RunGrid(8, 4, func(i int) error {
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want wrapped boom", err)
	}
}
