// Package par is the one worker pool: the experiment sweeps (core.Sweep
// and the figure runners) and the routing strategies' per-destination
// route builds all fan out through For. It lives below every domain
// package so that routing can fan out without importing core (which
// imports controller, which imports routing).
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// For runs jobs 0..n-1 across `workers` goroutines, preserving nothing
// about order except that all started jobs complete before it returns.
// workers <= 0 means GOMAXPROCS; workers == 1 (or n < 2) runs serially
// on the calling goroutine. After a job fails, no further jobs are
// claimed; the lowest-index error observed is returned.
//
// Once ctx ends no further job starts, and the context's error becomes
// the error of the index that would have started. Jobs already running
// observe ctx themselves (core.Run does, via the engine stop flag). A
// nil or never-done ctx (context.Background) costs nothing per job.
//
// A panicking job does not take the process down: each worker recovers
// once, the panic becomes that index's error (with the panic value and
// the goroutine's stack), and no further jobs are claimed — so a
// daemon that recovers panics on its own job goroutine also survives
// panics raised inside a parallel sweep's workers.
//
// Jobs must be independent: callers satisfy this by giving every job
// its own output slot and priming shared read-only structures
// (topologies, route sets, SDT deployments) before the fan-out.
func For(ctx context.Context, workers, n int, job func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	p := &pool{n: int64(n), job: job}
	if ctx != nil && ctx.Done() != nil {
		p.ctxErr = ctx.Err
	}
	if workers <= 1 {
		p.work()
		return p.err
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			p.work()
		}()
	}
	wg.Wait()
	return p.err
}

// pool is one For invocation's shared claim counter and error slot.
type pool struct {
	n      int64
	job    func(i int) error
	ctxErr func() error // nil when the context can never end
	next   atomic.Int64 // indices claimed so far
	failed atomic.Bool

	mu sync.Mutex
	// err keeps the error of the lowest job index so parallel runs fail
	// with the same error a serial run would hit first.
	err    error
	errIdx int
}

// work claims and runs jobs until the indices run out or a job fails.
// Its single deferred recover turns a panic into the claimed index's
// error.
func (p *pool) work() {
	i := -1
	defer func() {
		if v := recover(); v != nil {
			p.fail(i, fmt.Errorf("par: job %d panicked: %v\n%s", i, v, debug.Stack()))
		}
	}()
	for !p.failed.Load() {
		claimed := p.next.Add(1)
		if claimed > p.n {
			return
		}
		i = int(claimed - 1)
		var err error
		if p.ctxErr != nil {
			err = p.ctxErr()
		}
		if err == nil {
			err = p.job(i)
		}
		if err != nil {
			p.fail(i, err)
		}
	}
}

// fail records job i's error and stops further claims.
func (p *pool) fail(i int, err error) {
	p.failed.Store(true)
	p.mu.Lock()
	if p.err == nil || i < p.errIdx {
		p.err, p.errIdx = err, i
	}
	p.mu.Unlock()
}
