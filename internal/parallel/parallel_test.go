package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

func TestPoolSize(t *testing.T) {
	var nilPool *Pool
	if nilPool.Size() != 1 || !nilPool.Sequential() {
		t.Error("nil pool must be sequential with size 1")
	}
	if p := NewPool(4); p.Size() != 4 || p.Sequential() {
		t.Errorf("NewPool(4): size=%d sequential=%v", p.Size(), p.Sequential())
	}
	if p := NewPool(1); !p.Sequential() {
		t.Error("NewPool(1) must be sequential")
	}
}

// TestFirstErrorLowestIndex: with several failing indices, every pool
// shape must report the lowest one — the sequential contract.
func TestFirstErrorLowestIndex(t *testing.T) {
	fails := map[int]bool{3: true, 7: true, 120: true}
	check := func(i int) error {
		if fails[i] {
			return fmt.Errorf("bad index %d", i)
		}
		return nil
	}
	for _, p := range []*Pool{nil, NewPool(1), NewPool(4), NewPool(16)} {
		idx, err := p.FirstError(200, check)
		if idx != 3 || err == nil || err.Error() != "bad index 3" {
			t.Errorf("pool size %d: FirstError = (%d, %v), want (3, bad index 3)", p.Size(), idx, err)
		}
	}
}

func TestFirstErrorAllPass(t *testing.T) {
	for _, p := range []*Pool{nil, NewPool(4)} {
		var calls atomic.Int64
		idx, err := p.FirstError(50, func(int) error { calls.Add(1); return nil })
		if idx != -1 || err != nil {
			t.Errorf("pool size %d: FirstError = (%d, %v), want (-1, nil)", p.Size(), idx, err)
		}
		if calls.Load() != 50 {
			t.Errorf("pool size %d: %d calls, want 50", p.Size(), calls.Load())
		}
	}
}

func TestFirstErrorEmpty(t *testing.T) {
	if idx, err := NewPool(4).FirstError(0, func(int) error { return errors.New("never") }); idx != -1 || err != nil {
		t.Errorf("FirstError(0) = (%d, %v)", idx, err)
	}
}

// TestFirstErrorCancels: an early failure must stop the pool from
// claiming the whole tail of a long input.
func TestFirstErrorCancels(t *testing.T) {
	p := NewPool(4)
	var calls atomic.Int64
	idx, err := p.FirstError(100000, func(i int) error {
		calls.Add(1)
		if i == 0 {
			return errors.New("immediate")
		}
		return nil
	})
	if idx != 0 || err == nil {
		t.Fatalf("FirstError = (%d, %v)", idx, err)
	}
	if c := calls.Load(); c > 10000 {
		t.Errorf("early failure did not cancel: %d of 100000 checked", c)
	}
}

// TestOnBusyBalanced: the busy hook must see matched +1/-1 pairs and
// never exceed the pool size.
func TestOnBusyBalanced(t *testing.T) {
	p := NewPool(3)
	var busy, maxBusy, acquires atomic.Int64
	p.OnBusy = func(delta int) {
		v := busy.Add(int64(delta))
		if delta > 0 {
			acquires.Add(1)
		}
		for {
			m := maxBusy.Load()
			if v <= m || maxBusy.CompareAndSwap(m, v) {
				break
			}
		}
	}
	if _, err := p.FirstError(50, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if busy.Load() != 0 {
		t.Errorf("busy gauge leaked: %d", busy.Load())
	}
	if maxBusy.Load() > 3 {
		t.Errorf("busy exceeded pool size: %d", maxBusy.Load())
	}
	if acquires.Load() == 0 {
		t.Error("OnBusy never called")
	}
}
