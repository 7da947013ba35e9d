package operator

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/wire"
)

// Metric names exported by the binary wire client.
const (
	// MetricWireClientSubmitsTotal counts submissions issued over the
	// binary transport.
	MetricWireClientSubmitsTotal = "alidrone_client_wire_submits_total"
	// MetricWireClientFlushesTotal counts batch flushes (network writes).
	// flushes/submits is the achieved batching factor.
	MetricWireClientFlushesTotal = "alidrone_client_wire_flushes_total"
	// MetricWireClientRetriesTotal counts submissions re-sent after a
	// typed overload ack.
	MetricWireClientRetriesTotal = "alidrone_client_wire_retries_total"
	// MetricWireClientDialsTotal counts connection (re)establishments.
	MetricWireClientDialsTotal = "alidrone_client_wire_dials_total"
)

// ErrWireConnLost reports that the transport connection failed (or could
// not be established) while submissions were awaiting their acks. The
// auditor may or may not have verified them; resubmitting risks a replay
// verdict, so the choice is the caller's.
var ErrWireConnLost = wire.ErrConnLost

// ErrRedialBackoff reports a submission attempted while the client is
// backing off from a failed dial; it fails fast instead of hammering a
// dead (or restarting, not yet ready) auditor.
var ErrRedialBackoff = errors.New("operator: wire redial backing off")

const (
	// wireDialTimeout bounds connection establishment and the handshake.
	wireDialTimeout = 10 * time.Second
	// redialBackoff is the wait after a first failed dial; it doubles per
	// consecutive failure up to redialMaxBackoff and resets on success.
	// The applied wait is jittered over [base/2, base) so a fleet of
	// clients that lost the same auditor does not redial in lockstep.
	redialBackoff    = 50 * time.Millisecond
	redialMaxBackoff = 5 * time.Second
)

// WireClientOptions configures batching and retry behaviour.
type WireClientOptions struct {
	// BatchSize flushes the submit buffer when this many submissions are
	// queued. Default 16.
	BatchSize int
	// FlushInterval flushes a non-empty buffer after this long even if
	// BatchSize was not reached. Default 2ms.
	FlushInterval time.Duration
	// Retry controls re-submission after a typed overload ack, honouring
	// max(backoff, server hint) like the HTTP client does for
	// 429/Retry-After. The zero value surfaces the overload error.
	Retry RetryPolicy
	// Metrics, when set, receives the client's wire series.
	Metrics *obs.Registry
}

// WireClient is the drone side of the binary transport (DESIGN.md §10):
// client-side batching (buffer N proofs or T ms, flush as one frame
// sequence in a single write) over one lazily dialed wire.Conn, and the
// overload retry policy. Pipelining, ack correlation and failure fan-out
// are the connection's. It is safe for concurrent use; concurrent
// submissions share flushes.
type WireClient struct {
	addr  string
	opts  WireClientOptions
	sleep func(time.Duration) // injectable for retry tests

	// Counters are resolved once at construction so the per-submission
	// path skips the registry's name lookup.
	submits, flushes, retries, dials *obs.Counter

	// now and jitter are injectable so tests pin the redial schedule
	// without sleeping.
	now    func() time.Time
	jitter func() float64 // uniform [0,1)

	mu         sync.Mutex
	conn       *wire.Conn
	buf        []byte // encoded frames awaiting flush on conn
	queued     int    // submissions in buf
	timer      *time.Timer
	closed     bool
	redialWait time.Duration // current (unjittered) backoff base
	nextDialAt time.Time     // dials before this instant fail fast
}

// NewWireClient creates a client for the auditor's wire listener at
// addr. The connection is established lazily by the first submission
// and re-established transparently after a failure.
func NewWireClient(addr string, opts WireClientOptions) *WireClient {
	if opts.BatchSize <= 0 {
		opts.BatchSize = 16
	}
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = 2 * time.Millisecond
	}
	return &WireClient{
		addr:    addr,
		opts:    opts,
		sleep:   time.Sleep,
		now:     time.Now,
		jitter:  rand.Float64,
		submits: opts.Metrics.Counter(MetricWireClientSubmitsTotal),
		flushes: opts.Metrics.Counter(MetricWireClientFlushesTotal),
		retries: opts.Metrics.Counter(MetricWireClientRetriesTotal),
		dials:   opts.Metrics.Counter(MetricWireClientDialsTotal),
	}
}

// Close tears down the connection and fails every pending submission.
func (c *WireClient) Close() error {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.dropConnLocked()
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// dropConnLocked forgets the current connection and the batch queued on
// it (its waiters are released by the connection itself when it fails or
// is closed). Callers hold c.mu.
func (c *WireClient) dropConnLocked() {
	c.conn = nil
	c.buf = c.buf[:0]
	c.queued = 0
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
}

// noteDialFailureLocked arms (or doubles) the jittered redial backoff
// after a failed connection attempt. Callers hold c.mu.
func (c *WireClient) noteDialFailureLocked() {
	if c.redialWait == 0 {
		c.redialWait = redialBackoff
	} else {
		c.redialWait = min(c.redialWait*2, redialMaxBackoff)
	}
	half := c.redialWait / 2
	c.nextDialAt = c.now().Add(half + time.Duration(c.jitter()*float64(half)))
}

// dialLocked establishes and handshakes the connection. A failure —
// including a handshake failure, so the backoff also covers an auditor
// that accepts TCP but is not yet serving — arms the jittered redial
// backoff; until it expires further attempts fail fast with
// ErrRedialBackoff. Callers hold c.mu.
func (c *WireClient) dialLocked() error {
	if !c.nextDialAt.IsZero() && c.now().Before(c.nextDialAt) {
		return fmt.Errorf("wire dial %s: %w (next attempt in %v)",
			c.addr, ErrRedialBackoff, c.nextDialAt.Sub(c.now()).Round(time.Millisecond))
	}
	conn, err := wire.Dial(c.addr, wireDialTimeout)
	if err != nil {
		c.noteDialFailureLocked()
		return err
	}
	c.dials.Inc()
	c.redialWait = 0
	c.nextDialAt = time.Time{}
	c.conn = conn
	return nil
}

// flushLocked writes the buffered frame sequence in one Write. Callers
// hold c.mu.
func (c *WireClient) flushLocked() {
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	if c.queued == 0 {
		return
	}
	c.flushes.Inc()
	err := c.conn.Write(c.buf)
	c.buf = c.buf[:0]
	c.queued = 0
	if err != nil {
		c.dropConnLocked()
	}
}

// SubmitPoA submits one PoA over the wire transport, blocking until its
// ack arrives. Equivalent semantics to HTTPAuditor.SubmitPoA: a
// violation verdict is a response, not an error; an overload ack
// surfaces as *protocol.OverloadedError (after the retry budget, if
// any).
func (c *WireClient) SubmitPoA(req protocol.SubmitPoARequest) (protocol.SubmitPoAResponse, error) {
	return c.SubmitPoACtx(context.Background(), req)
}

// SubmitPoACtx is SubmitPoA under a caller context.
func (c *WireClient) SubmitPoACtx(ctx context.Context, req protocol.SubmitPoARequest) (protocol.SubmitPoAResponse, error) {
	return c.submitWire(ctx, req.DroneID, req.EncryptedPoA, false)
}

// SubmitCommitPoA submits one commit-mode envelope over the wire
// transport (a TypeSubmitCommit frame, batched and acked exactly like a
// regular submission).
func (c *WireClient) SubmitCommitPoA(req protocol.SubmitCommitPoARequest) (protocol.SubmitPoAResponse, error) {
	return c.SubmitCommitPoACtx(context.Background(), req)
}

// SubmitCommitPoACtx is SubmitCommitPoA under a caller context.
func (c *WireClient) SubmitCommitPoACtx(ctx context.Context, req protocol.SubmitCommitPoARequest) (protocol.SubmitPoAResponse, error) {
	return c.submitWire(ctx, req.DroneID, req.EncryptedEnvelope, true)
}

// submitWire runs the shared submit/ack/retry loop for both submission
// frame types.
func (c *WireClient) submitWire(ctx context.Context, droneID string, ciphertext []byte, commit bool) (protocol.SubmitPoAResponse, error) {
	backoff := c.opts.Retry.Backoff
	for attempt := 0; ; attempt++ {
		c.submits.Inc()
		ack, err := c.submitOnce(ctx, droneID, ciphertext, commit)
		if err != nil {
			return protocol.SubmitPoAResponse{}, err
		}
		resp, err := protocol.ResponseFromAck(droneID, ack)
		if ack.Status != wire.StatusOverloaded || attempt >= c.opts.Retry.Max {
			return resp, err
		}
		// Honour the server's hint over a shorter local backoff, as the
		// HTTP client does for Retry-After.
		hint := time.Duration(ack.RetryAfterMS) * time.Millisecond
		if wait := max(backoff, hint); wait > 0 {
			if serr := c.sleepCtx(ctx, wait); serr != nil {
				return protocol.SubmitPoAResponse{}, serr
			}
			backoff *= 2
		}
		c.retries.Inc()
	}
}

// submitOnce enqueues the submission into the current batch — dialing
// first when there is no live connection — and waits for its ack.
func (c *WireClient) submitOnce(ctx context.Context, droneID string, ciphertext []byte, commit bool) (wire.Ack, error) {
	c.mu.Lock()
	p, err := c.beginLocked()
	if err != nil {
		c.mu.Unlock()
		return wire.Ack{}, err
	}
	s := wire.Submit{Seq: p.Seq, DroneID: droneID, Ciphertext: ciphertext}
	if commit {
		c.buf = wire.EncodeSubmitCommit(c.buf, s)
	} else {
		c.buf = wire.EncodeSubmit(c.buf, s)
	}
	c.queued++
	if c.queued >= c.opts.BatchSize {
		c.flushLocked()
	} else if c.timer == nil {
		c.timer = time.AfterFunc(c.opts.FlushInterval, func() {
			c.mu.Lock()
			c.timer = nil
			c.flushLocked()
			c.mu.Unlock()
		})
	}
	c.mu.Unlock()
	return p.Wait(ctx)
}

// beginLocked registers a waiter on the live connection, replacing a
// dead one first. Every failure wraps ErrWireConnLost. Callers hold c.mu.
func (c *WireClient) beginLocked() (wire.Pending, error) {
	if c.closed {
		return wire.Pending{}, ErrWireConnLost
	}
	if c.conn != nil && c.conn.Err() != nil {
		c.dropConnLocked()
	}
	if c.conn == nil {
		if err := c.dialLocked(); err != nil {
			return wire.Pending{}, fmt.Errorf("%w: %w", ErrWireConnLost, err)
		}
	}
	p, err := c.conn.Begin()
	if err != nil {
		c.dropConnLocked()
	}
	return p, err
}

// SetSleep replaces the retry backoff sleeper. Tests inject a recorder
// to assert on Retry-After hints without sleeping for real.
func (c *WireClient) SetSleep(fn func(time.Duration)) { c.sleep = fn }

// sleepCtx waits for d or ctx cancellation (mirrors HTTPAuditor).
func (c *WireClient) sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		c.sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// WireAuditor is a protocol.API implementation that sends PoA
// submissions over the binary transport and everything else over HTTP.
// The split matches the traffic shape: submissions are the hot,
// per-sample-rate path; registration, zone queries and mode endpoints
// are occasional.
type WireAuditor struct {
	*HTTPAuditor
	wc  *WireClient
	ctx context.Context // bound call context (nil = Background)
}

var (
	_ protocol.API           = (*WireAuditor)(nil)
	_ protocol.ContextBinder = (*WireAuditor)(nil)
)

// NewWireAuditor wraps an HTTP client with a binary submit channel to
// the auditor's wire listener at addr.
func NewWireAuditor(h *HTTPAuditor, addr string, opts WireClientOptions) *WireAuditor {
	return &WireAuditor{HTTPAuditor: h, wc: NewWireClient(addr, opts)}
}

// Wire exposes the underlying wire client (for Close and direct use).
func (w *WireAuditor) Wire() *WireClient { return w.wc }

// Close tears down the wire connection.
func (w *WireAuditor) Close() error { return w.wc.Close() }

// SubmitPoA routes submissions over the binary transport.
func (w *WireAuditor) SubmitPoA(req protocol.SubmitPoARequest) (protocol.SubmitPoAResponse, error) {
	ctx := w.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	return w.wc.SubmitPoACtx(ctx, req)
}

// SubmitCommitPoA routes commit-mode submissions over the binary
// transport (the other disclosure endpoints stay on HTTP: sealed
// payloads are as large as full ones, and reveals are rare).
func (w *WireAuditor) SubmitCommitPoA(req protocol.SubmitCommitPoARequest) (protocol.SubmitPoAResponse, error) {
	ctx := w.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	return w.wc.SubmitCommitPoACtx(ctx, req)
}

// BindContext implements protocol.ContextBinder. It must be overridden
// here — the promoted HTTPAuditor method would return the bare HTTP
// client and silently drop the wire path.
func (w *WireAuditor) BindContext(ctx context.Context) protocol.API {
	return &WireAuditor{HTTPAuditor: w.HTTPAuditor.WithContext(ctx), wc: w.wc, ctx: ctx}
}
