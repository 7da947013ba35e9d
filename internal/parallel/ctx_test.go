package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// Context cancellation contract of FirstErrorCtx: a done context stops
// the scan with ctx.Err(), except that an already-found genuine failure
// always wins — a forged sample must never be masked by the submitter
// going away mid-verification.

func TestFirstErrorCtxSequentialCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	i, err := (*Pool)(nil).FirstErrorCtx(ctx, 100, func(idx int) error {
		if calls.Add(1) == 3 {
			cancel()
		}
		return nil
	})
	if i != -1 || !errors.Is(err, context.Canceled) {
		t.Fatalf("FirstErrorCtx = %d, %v; want -1, context.Canceled", i, err)
	}
	if n := calls.Load(); n >= 100 {
		t.Errorf("cancellation did not stop the scan: %d calls", n)
	}
}

func TestFirstErrorCtxParallelCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPool(4)
	var calls atomic.Int64
	i, err := p.FirstErrorCtx(ctx, 10_000, func(idx int) error {
		if calls.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if i != -1 || !errors.Is(err, context.Canceled) {
		t.Fatalf("FirstErrorCtx = %d, %v; want -1, context.Canceled", i, err)
	}
	if n := calls.Load(); n >= 10_000 {
		t.Errorf("cancellation did not stop the workers: %d calls", n)
	}
}

func TestFirstErrorCtxFailureBeatsCancel(t *testing.T) {
	forged := errors.New("forged sample")
	for _, p := range []*Pool{nil, NewPool(4)} {
		ctx, cancel := context.WithCancel(context.Background())
		i, err := p.FirstErrorCtx(ctx, 50, func(idx int) error {
			if idx == 7 {
				cancel() // the caller goes away at the same moment...
				return forged
			}
			return nil
		})
		// ...but the recorded failure must still be reported.
		if i != 7 || !errors.Is(err, forged) {
			t.Errorf("pool size %d: FirstErrorCtx = %d, %v; want 7, forged", p.Size(), i, err)
		}
	}
}

func TestFirstErrorCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []*Pool{nil, NewPool(4)} {
		var calls atomic.Int64
		i, err := p.FirstErrorCtx(ctx, 100, func(int) error {
			calls.Add(1)
			return nil
		})
		if i != -1 || !errors.Is(err, context.Canceled) {
			t.Errorf("pool size %d: FirstErrorCtx = %d, %v", p.Size(), i, err)
		}
		if calls.Load() != 0 {
			t.Errorf("pool size %d: %d checks ran under a dead context", p.Size(), calls.Load())
		}
	}
}
