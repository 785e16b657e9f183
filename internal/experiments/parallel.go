package experiments

import (
	"context"
	"sync"
	"sync/atomic"
)

// ctx resolves Config.Context, defaulting to the background context.
func (cfg Config) ctx() context.Context {
	if cfg.Context != nil {
		return cfg.Context
	}
	return context.Background()
}

// runIndexed runs fn(0) .. fn(n-1) across a bounded worker pool. Tasks
// communicate results only by writing into caller-preallocated slots at
// their own index, so the assembled output is identical to a serial loop
// regardless of goroutine scheduling. With workers <= 1 (or a single
// task) it degenerates to the plain serial loop the pre-parallel code
// ran — no goroutines, no atomics.
//
// The first task error wins and cancels the rest of the queue; a
// cancelled ctx (interrupt, timeout) stops workers from picking up new
// tasks and surfaces ctx.Err(). Already-running tasks finish — they are
// side-effect-free solves — so returning means all workers have exited.
func runIndexed(ctx context.Context, workers, n int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for wctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() { firstErr = err })
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// Distinguish "queue drained" from "caller cancelled us": only the
	// outer context's state matters once every task error is ruled out.
	return ctx.Err()
}
