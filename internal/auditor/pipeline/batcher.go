package pipeline

import (
	"context"
	"sync"

	"repro/internal/parallel"
	"repro/internal/sigcrypto"
)

// VerifyItem is one signature check: sig over msg under a resolved
// verification key.
type VerifyItem struct {
	Key sigcrypto.PublicKey
	Msg []byte
	Sig []byte
}

// VerifyBatcher amortises signature verification across a submission's
// samples and across admission-queued submissions, with the same
// group-leader pattern the storage WAL uses for group commit: the first
// caller to arrive becomes the leader and drains every queued batch in one
// dispatch loop over the shared worker pool, so concurrent submissions
// coalesce instead of contending for pool slots one sample at a time.
// Within a batch, contiguous same-key runs collapse into single
// Suite.BatchVerify calls.
//
// The result contract matches parallel.FirstErrorCtx: the reported index is
// the lowest failing item of the caller's batch — identical to a
// sequential loop of Verify — or -1 with a nil error when all verify.
type VerifyBatcher struct {
	// Pool fans verification across workers; nil verifies sequentially.
	Pool *parallel.Pool

	mu      sync.Mutex
	queue   []*verifyJob
	leading bool
}

type verifyJob struct {
	ctx   context.Context
	items []VerifyItem
	idx   int
	err   error
	done  chan struct{}
}

// Verify checks every item, returning the lowest failing index with its
// error, or (-1, nil) when all signatures are valid. It blocks until a
// leader has executed the batch or ctx is cancelled.
func (b *VerifyBatcher) Verify(ctx context.Context, items []VerifyItem) (int, error) {
	if len(items) == 0 {
		return -1, nil
	}
	job := &verifyJob{ctx: ctx, items: items, idx: -1, done: make(chan struct{})}

	b.mu.Lock()
	b.queue = append(b.queue, job)
	if b.leading {
		// A leader is draining; it will pick this job up.
		b.mu.Unlock()
		select {
		case <-job.done:
			return job.idx, job.err
		case <-ctx.Done():
			// The leader still executes the job; this caller stops
			// waiting for the result.
			return -1, ctx.Err()
		}
	}
	b.leading = true
	for {
		if len(b.queue) == 0 {
			b.leading = false
			b.mu.Unlock()
			break
		}
		batch := b.queue
		b.queue = nil
		b.mu.Unlock()
		for _, j := range batch {
			j.idx, j.err = verifyItems(j.ctx, b.Pool, j.items)
			close(j.done)
		}
		b.mu.Lock()
	}
	return job.idx, job.err
}

// keySpan is a contiguous run of items under one key — the unit handed to
// Suite.BatchVerify.
type keySpan struct {
	lo, hi int // [lo, hi)
}

// verifyItems performs the actual checks for one batch: contiguous
// same-key runs become Suite.BatchVerify calls, runs are capped so a
// single long trace still fans across the pool, and FirstErrorCtx keeps
// the lowest-failing-index determinism across spans (spans are contiguous
// and ordered, so the lowest failing span's internal index is the global
// lowest failing item).
func verifyItems(ctx context.Context, pool *parallel.Pool, items []VerifyItem) (int, error) {
	n := len(items)
	if n == 0 {
		return -1, nil
	}
	// Cap span length so one submission still spreads over the workers:
	// aim for about two spans per worker.
	limit := (n + 2*pool.Size() - 1) / (2 * pool.Size())
	if limit < 1 {
		limit = 1
	}
	var spans []keySpan
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && hi-lo < limit && items[hi].Key.Equal(items[lo].Key) {
			hi++
		}
		spans = append(spans, keySpan{lo: lo, hi: hi})
		lo = hi
	}
	fails := make([]int, len(spans))
	si, err := pool.FirstErrorCtx(ctx, len(spans), func(i int) error {
		sp := spans[i]
		off, err := verifySpan(items[sp.lo:sp.hi])
		if err != nil {
			fails[i] = sp.lo + off
		}
		return err
	})
	if err != nil {
		if si < 0 {
			return -1, err // context cancellation
		}
		return fails[si], err
	}
	return -1, nil
}

// verifySpan checks one single-key run through the key's suite
// BatchVerify, returning the failing offset within the span. Keys whose
// suite is not registered (legacy RSA keys at non-standard modulus sizes)
// fall back to a plain verify loop.
func verifySpan(items []VerifyItem) (int, error) {
	key := items[0].Key
	if suite, err := sigcrypto.SuiteByID(key.SuiteID()); err == nil {
		msgs := make([][]byte, len(items))
		sigs := make([][]byte, len(items))
		for i, it := range items {
			msgs[i], sigs[i] = it.Msg, it.Sig
		}
		off, err := suite.BatchVerify(key, msgs, sigs)
		if err != nil && off < 0 {
			off = 0
		}
		return off, err
	}
	for i, it := range items {
		if err := key.Verify(it.Msg, it.Sig); err != nil {
			return i, err
		}
	}
	return -1, nil
}
