// Package parallel is the worker-pool substrate of the auditor's
// verification engine. A Pool bounds the number of goroutines doing
// CPU-bound verification work (the per-sample signature and HMAC checks)
// across *all* concurrent requests, so a burst of submissions degrades
// gracefully instead of spawning submissions × samples goroutines.
//
// Determinism is a design requirement, not an accident: a Pool with one
// worker (or a nil Pool) produces byte-identical results to the
// historical sequential loop, and a Pool with many workers produces the
// *same* results faster. FirstErrorCtx returns the lowest failing index —
// exactly what a sequential scan would report.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a configured worker count: values <= 0 select
// GOMAXPROCS, the "as fast as the hardware allows" default.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Pool is a bounded set of verification workers shared by all parallel
// stages of a server. The zero value is unusable; use NewPool. A nil
// *Pool is valid everywhere and means "run sequentially".
type Pool struct {
	workers int
	sem     chan struct{}
	// OnBusy, when set, is called with +1 when a worker slot is taken
	// and -1 when it is returned. The auditor points this at its
	// pool-depth gauge. It must be safe for concurrent use.
	OnBusy func(delta int)
}

// NewPool creates a pool with the given number of worker slots
// (<= 0 selects GOMAXPROCS).
func NewPool(workers int) *Pool {
	w := Workers(workers)
	return &Pool{workers: w, sem: make(chan struct{}, w)}
}

// Size returns the number of worker slots (1 for a nil pool).
func (p *Pool) Size() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Sequential reports whether this pool degenerates to the sequential
// path: nil or a single worker slot.
func (p *Pool) Sequential() bool { return p == nil || p.workers == 1 }

func (p *Pool) acquire() {
	p.sem <- struct{}{}
	if p.OnBusy != nil {
		p.OnBusy(1)
	}
}

func (p *Pool) release() {
	if p.OnBusy != nil {
		p.OnBusy(-1)
	}
	<-p.sem
}

// FirstErrorCtx runs check(0) … check(n-1) and returns the lowest index
// whose check failed together with its error, or (-1, nil) when every
// check passes — the exact contract of a sequential early-return loop.
//
// On a multi-worker pool the indices are claimed from a shared counter
// by up to Size() workers; once a failure at index f is known, indices
// above f are cancelled (never claimed), so a forged sample near the
// front of a long trace does not pay for verifying the whole tail.
// Indices below f are always fully checked, which is what makes the
// reported index deterministic: it is the global minimum failing index,
// not merely the first one observed.
//
// Cancellation is cooperative: when ctx is done, workers stop claiming
// new indices and the call returns (-1, ctx.Err()) — unless a genuine
// check failure was already recorded, in which case the lowest failure
// seen wins so a found forgery is never masked by the caller going away.
// A context that can never be cancelled (context.Background()) adds no
// per-index overhead.
func (p *Pool) FirstErrorCtx(ctx context.Context, n int, check func(int) error) (int, error) {
	if n <= 0 {
		return -1, nil
	}
	done := ctx.Done()
	if p.Sequential() || n == 1 {
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return -1, ctx.Err()
				default:
				}
			}
			if err := check(i); err != nil {
				return i, err
			}
		}
		return -1, nil
	}

	var (
		next    atomic.Int64 // next index to claim
		minFail atomic.Int64 // lowest failing index seen so far
		mu      sync.Mutex
		errs    map[int]error
		wg      sync.WaitGroup
	)
	minFail.Store(int64(n))

	workers := p.workers
	if workers > n {
		workers = n
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.acquire()
			defer p.release()
			for {
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				i := int(next.Add(1) - 1)
				// Cancellation: nothing at or above a known failure can
				// change the answer, so stop claiming.
				if i >= n || int64(i) >= minFail.Load() {
					return
				}
				if err := check(i); err != nil {
					mu.Lock()
					if errs == nil {
						errs = make(map[int]error)
					}
					errs[i] = err
					mu.Unlock()
					for {
						cur := minFail.Load()
						if int64(i) >= cur || minFail.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	if f := int(minFail.Load()); f < n {
		return f, errs[f]
	}
	if err := ctx.Err(); err != nil {
		return -1, err
	}
	return -1, nil
}
