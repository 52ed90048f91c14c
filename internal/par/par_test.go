package par

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForRunsEveryJob(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		var hits [40]int32
		err := For(context.Background(), workers, len(hits), func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestForReturnsLowestIndexError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	err := For(context.Background(), 4, 20, func(i int) error {
		switch i {
		case 3:
			return errA
		case 17:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("got %v, want the lowest-index error", err)
	}
}

// TestForStopsClaimingOnCancel: once the context ends no further job
// starts, and the context's error is returned.
func TestForStopsClaimingOnCancel(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := For(ctx, workers, 100, func(i int) error {
			if ran.Add(1) == 3 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n >= 100 {
			t.Fatalf("workers=%d: all %d jobs ran after cancel", workers, n)
		}
	}
}

// TestForRecoversWorkerPanic: a job panicking on a worker goroutine
// becomes that index's error, carrying the panic value and the stack,
// instead of killing the process; no further jobs are claimed.
func TestForRecoversWorkerPanic(t *testing.T) {
	for _, workers := range []int{1, 2} {
		var after atomic.Int32
		err := For(context.Background(), workers, 50, func(i int) error {
			if i == 5 {
				panic("boom at five")
			}
			if i > 5 {
				after.Add(1)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic swallowed", workers)
		}
		msg := err.Error()
		if !strings.Contains(msg, "job 5 panicked: boom at five") || !strings.Contains(msg, "par_test.go") {
			t.Fatalf("workers=%d: error lacks the panic value or stack:\n%s", workers, msg)
		}
		// Serially the panic stops the pool at once; in parallel the
		// other worker may still finish jobs it claimed before the
		// panic landed, so only the serial count is exact.
		if n := after.Load(); workers == 1 && n != 0 {
			t.Fatalf("workers=%d: %d jobs past the panic ran", workers, n)
		}
	}
}
