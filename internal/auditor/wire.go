package auditor

// The binary wire door: a persistent, multiplexed TCP transport for PoA
// submissions (DESIGN.md §10). One long-lived connection per drone
// carries many pipelined submissions; verdicts travel back as coalesced
// ack frames. Everything behind the framing is the same staged pipeline
// and admission control the HTTP door uses — this is the sixth
// verdict-parity entry point, not a second verification path.

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/olog"
	otrace "repro/internal/obs/trace"
	"repro/internal/protocol"
	"repro/internal/wire"
)

// WireOptions configures the binary transport listener.
type WireOptions struct {
	// Logger receives connection-lifecycle and protocol-error lines.
	Logger *olog.Logger
}

// maxPipeline bounds the submissions one connection may have in flight in
// the verification pipeline; past it the reader stops consuming frames
// and TCP backpressure reaches the client. (The admission controller
// still applies on top — a shed submission occupies its pipeline slot
// only long enough to produce an overload ack.)
const maxPipeline = 64

// wireMetrics holds the transport's counters, resolved once at
// construction: the per-frame path must not pay a registry lookup (and
// an obs.L render) per increment.
type wireMetrics struct {
	connections   *obs.Gauge
	connsTotal    *obs.Counter
	rxFrames      *obs.Counter
	txFrames      *obs.Counter
	rxBytes       *obs.Counter
	txBytes       *obs.Counter
	submissions   *obs.Counter
	errors        *obs.Counter
	ackCompliant  *obs.Counter
	ackViolation  *obs.Counter
	ackOverloaded *obs.Counter
	ackError      *obs.Counter
}

func newWireMetrics(reg *obs.Registry) wireMetrics {
	return wireMetrics{
		connections:   reg.Gauge(MetricWireConnections),
		connsTotal:    reg.Counter(MetricWireConnectionsTotal),
		rxFrames:      reg.Counter(obs.L(MetricWireFramesTotal, "dir", "rx")),
		txFrames:      reg.Counter(obs.L(MetricWireFramesTotal, "dir", "tx")),
		rxBytes:       reg.Counter(obs.L(MetricWireBytesTotal, "dir", "rx")),
		txBytes:       reg.Counter(obs.L(MetricWireBytesTotal, "dir", "tx")),
		submissions:   reg.Counter(MetricWireSubmissionsTotal),
		errors:        reg.Counter(MetricWireErrorsTotal),
		ackCompliant:  reg.Counter(obs.L(MetricWireAcksTotal, "status", "compliant")),
		ackViolation:  reg.Counter(obs.L(MetricWireAcksTotal, "status", "violation")),
		ackOverloaded: reg.Counter(obs.L(MetricWireAcksTotal, "status", "overloaded")),
		ackError:      reg.Counter(obs.L(MetricWireAcksTotal, "status", "error")),
	}
}

// ackCounter returns the counter for one ack status.
func (m *wireMetrics) ackCounter(status byte) *obs.Counter {
	switch status {
	case wire.StatusCompliant:
		return m.ackCompliant
	case wire.StatusViolation:
		return m.ackViolation
	case wire.StatusOverloaded:
		return m.ackOverloaded
	default:
		return m.ackError
	}
}

// WireBackend is what the binary transport needs from a backend: the
// operations it carries, connection accounting and the metrics registry.
// Both the single-node *Server and the cluster *Router satisfy it (the
// unexported method keeps the set closed to this package).
type WireBackend interface {
	SubmitPoACtx(ctx context.Context, req protocol.SubmitPoARequest) (protocol.SubmitPoAResponse, error)
	SubmitCommitPoACtx(ctx context.Context, req protocol.SubmitCommitPoARequest) (protocol.SubmitPoAResponse, error)
	Metrics() *obs.Registry
	Tracer() *otrace.Tracer
	wireConnDelta(d int64)
}

var _ WireBackend = (*Server)(nil)

// WireServer serves the binary transport for one auditor backend.
type WireServer struct {
	srv  WireBackend
	opts WireOptions
	met  wireMetrics

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup // accept loop + per-connection handlers
}

// NewWireServer wraps srv with a binary transport. Call Serve with a
// listener to start accepting.
func NewWireServer(srv WireBackend, opts WireOptions) *WireServer {
	return &WireServer{
		srv:   srv,
		opts:  opts,
		met:   newWireMetrics(srv.Metrics()),
		conns: make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections on lis until Close. It returns nil after a
// Close-triggered shutdown and the accept error otherwise.
func (ws *WireServer) Serve(lis net.Listener) error {
	ws.mu.Lock()
	if ws.closed {
		ws.mu.Unlock()
		lis.Close()
		return errors.New("auditor: wire server closed")
	}
	ws.lis = lis
	ws.mu.Unlock()

	for {
		c, err := lis.Accept()
		if err != nil {
			ws.mu.Lock()
			closed := ws.closed
			ws.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		ws.mu.Lock()
		if ws.closed {
			ws.mu.Unlock()
			c.Close()
			return nil
		}
		ws.conns[c] = struct{}{}
		ws.wg.Add(1)
		ws.mu.Unlock()

		ws.met.connsTotal.Inc()
		go ws.handleConn(c)
	}
}

// Close stops accepting, closes every live connection and waits for the
// handlers to drain.
func (ws *WireServer) Close() error {
	ws.mu.Lock()
	if ws.closed {
		ws.mu.Unlock()
		return nil
	}
	ws.closed = true
	lis := ws.lis
	for c := range ws.conns {
		c.Close()
	}
	ws.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	ws.wg.Wait()
	return nil
}

// forget removes a finished connection from the live set.
func (ws *WireServer) forget(c net.Conn) {
	ws.mu.Lock()
	delete(ws.conns, c)
	ws.mu.Unlock()
}

// wireConn is one accepted connection: the serialised frame writer (the
// ack writer owns the steady-state traffic; handshake and error frames go
// through the same lock) and the state its submissions share.
type wireConn struct {
	c   net.Conn
	met *wireMetrics
	br  *bufio.Reader

	wmu sync.Mutex
	bw  *bufio.Writer

	// ctx cancels in-flight verifications when the client goes away — the
	// wire equivalent of an aborted HTTP request.
	ctx context.Context
	// acks flows from the per-submission goroutines to the ack writer.
	// Sized so a full pipeline of verdicts never blocks on a busy writer.
	acks chan wire.Ack
	// slots bounds this connection's in-flight submissions; acquiring in
	// the read loop turns overrun into TCP backpressure.
	slots   chan struct{}
	submits sync.WaitGroup
}

// writeFrame writes one pre-encoded frame (or frame sequence) and
// flushes.
func (wc *wireConn) writeFrame(frame []byte) error {
	wc.wmu.Lock()
	defer wc.wmu.Unlock()
	if _, err := wc.bw.Write(frame); err != nil {
		return err
	}
	if err := wc.bw.Flush(); err != nil {
		return err
	}
	wc.met.txFrames.Inc()
	wc.met.txBytes.Add(uint64(len(frame)))
	return nil
}

// reject counts a protocol error and emits the fatal error frame; the
// caller closes the connection after it.
func (wc *wireConn) reject(msg string) {
	wc.met.errors.Inc()
	_ = wc.writeFrame(wire.EncodeError(nil, wire.WireError{Message: msg})) // the peer is being dropped either way
}

// readFrame reads and accounts one inbound frame.
func (wc *wireConn) readFrame() (version byte, data []byte, err error) {
	version, data, err = wire.ReadFrame(wc.br, wire.MaxMessageBytes)
	if err == nil {
		wc.met.rxFrames.Inc()
		wc.met.rxBytes.Add(uint64(wire.HeaderBytes + 1 + len(data)))
	}
	return version, data, err
}

// handleConn runs one connection: handshake, then a read loop spawning
// per-submission pipeline calls, with a writer goroutine coalescing
// their acks.
func (ws *WireServer) handleConn(c net.Conn) {
	defer ws.wg.Done()
	defer ws.forget(c)
	defer c.Close()

	ws.srv.wireConnDelta(1)
	ws.met.connections.Add(1)
	defer func() {
		ws.srv.wireConnDelta(-1)
		ws.met.connections.Add(-1)
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wc := &wireConn{
		c: c, met: &ws.met, ctx: ctx,
		br:    bufio.NewReaderSize(c, 64<<10),
		bw:    bufio.NewWriterSize(c, 64<<10),
		acks:  make(chan wire.Ack, 4*maxPipeline),
		slots: make(chan struct{}, maxPipeline),
	}
	if !ws.handshake(wc) {
		return
	}

	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		ws.ackWriter(wc)
	}()

	ws.readLoop(wc)

	// Unblock in-flight verifications, let their acks drain, then stop
	// the writer.
	cancel()
	wc.submits.Wait()
	close(wc.acks)
	writer.Wait()
	ws.opts.Logger.Debug(ctx, "wire connection closed", "remote", c.RemoteAddr().String())
}

// handshake enforces the Hello/HelloAck exchange and version agreement.
func (ws *WireServer) handshake(wc *wireConn) bool {
	version, data, err := wc.readFrame()
	if err != nil {
		ws.met.errors.Inc()
		return false
	}
	typ, body, err := wire.SplitType(data)
	switch {
	case err != nil || typ != wire.TypeHello:
		wc.reject("expected hello")
		return false
	case !wire.SupportedVersion(version):
		// Version negotiation: the refusal names the error so a newer
		// client can downgrade and redial.
		wc.reject(wire.ErrUnknownVersion.Error())
		return false
	}
	if _, err := wire.DecodeHello(body); err != nil {
		wc.reject(err.Error())
		return false
	}
	// Echo the client's version: every version this build supports it
	// speaks in full, so the dialer's proposal is always accepted.
	return wc.writeFrame(wire.EncodeHelloAck(nil, wire.HelloAck{Version: version})) == nil
}

// wireDoor is one submission frame type the binary door accepts. A new
// frame is one row here plus its codec in internal/wire.
type wireDoor struct {
	span string // server-side span name
	// forwarded marks a peer's single-hop forward: the context is marked so
	// a routing backend executes it locally (or raises ErrMisrouted) instead
	// of forwarding again, and the span continues the forwarder's trace.
	forwarded bool
	decode    func(version byte, body []byte) (wire.Submit, error)
	submit    func(ctx context.Context, b WireBackend, s wire.Submit) (protocol.SubmitPoAResponse, error)
}

var wireDoors = map[byte]wireDoor{
	wire.TypeSubmit: {span: "wire.submit", submit: submitFull,
		decode: func(_ byte, body []byte) (wire.Submit, error) { return wire.DecodeSubmit(body) }},
	wire.TypeSubmitCommit: {span: "wire.submit-commit", submit: submitCommit,
		decode: func(_ byte, body []byte) (wire.Submit, error) { return wire.DecodeSubmitCommit(body) }},
	wire.TypeForward: {span: "wire.forward", submit: submitFull, forwarded: true,
		decode: wire.DecodeForwardV},
}

func submitFull(ctx context.Context, b WireBackend, s wire.Submit) (protocol.SubmitPoAResponse, error) {
	return b.SubmitPoACtx(ctx, protocol.SubmitPoARequest{DroneID: s.DroneID, EncryptedPoA: s.Ciphertext})
}

func submitCommit(ctx context.Context, b WireBackend, s wire.Submit) (protocol.SubmitPoAResponse, error) {
	return b.SubmitCommitPoACtx(ctx, protocol.SubmitCommitPoARequest{DroneID: s.DroneID, EncryptedEnvelope: s.Ciphertext})
}

// readLoop consumes frames until EOF or a protocol error, dispatching
// submissions into the pipeline.
func (ws *WireServer) readLoop(wc *wireConn) {
	for {
		version, data, err := wc.readFrame()
		if err != nil {
			if err != io.EOF {
				// A torn frame is expected when a client dies mid-write;
				// CRC or length failures mean a confused peer. Either way
				// the stream is unreadable from here.
				ws.opts.Logger.Debug(wc.ctx, "wire read error", "err", err.Error())
				if errors.Is(err, wire.ErrBadCRC) || errors.Is(err, wire.ErrFrameTooLarge) || errors.Is(err, wire.ErrEmptyFrame) {
					wc.reject(err.Error())
				} else {
					ws.met.errors.Inc()
				}
			}
			return
		}
		if !wire.SupportedVersion(version) {
			wc.reject(wire.ErrUnknownVersion.Error())
			return
		}
		typ, body, err := wire.SplitType(data)
		if err != nil {
			wc.reject(err.Error())
			return
		}
		door, ok := wireDoors[typ]
		switch {
		case ok:
			if !ws.dispatch(wc, door, version, body) {
				return
			}
		case typ == wire.TypeHello:
			wc.reject("duplicate hello")
			return
		default:
			wc.reject(wire.ErrUnknownType.Error())
			return
		}
	}
}

// dispatch admits one submission frame: decode it, take a pipeline slot,
// and run the door on its own goroutine, which queues the ack. It
// returns false when the connection must close.
func (ws *WireServer) dispatch(wc *wireConn, door wireDoor, version byte, body []byte) bool {
	sub, err := door.decode(version, body)
	if err != nil {
		wc.reject(err.Error())
		return false
	}
	select {
	case wc.slots <- struct{}{}:
	case <-wc.ctx.Done():
		return false
	}
	ws.met.submissions.Inc()
	wc.submits.Add(1)
	go func() {
		defer wc.submits.Done()
		defer func() { <-wc.slots }()
		ctx := wc.ctx
		if door.forwarded {
			ctx = withForwarded(ctx)
		}
		// An empty traceparent (every frame but a Version2+ Forward)
		// starts a local root span.
		ctx, sp := ws.srv.Tracer().StartRemote(ctx, sub.TraceParent, door.span)
		sp.SetAttr("drone", sub.DroneID)
		resp, err := door.submit(ctx, ws.srv, sub)
		sp.SetError(err)
		sp.End()
		select {
		case wc.acks <- protocol.AckFor(sub.Seq, resp, err):
		case <-wc.ctx.Done():
		}
	}()
	return true
}

// ackWriter drains the ack channel, coalescing every ack available at
// flush time into a single frame — under pipelined load many verdicts
// share one write and one TCP segment.
func (ws *WireServer) ackWriter(wc *wireConn) {
	batch := make([]wire.Ack, 0, wire.MaxAcksPerFrame)
	var buf []byte
	var dead bool // conn failed: keep draining so submitters never block
	for a := range wc.acks {
		batch = append(batch[:0], a)
	coalesce:
		for len(batch) < wire.MaxAcksPerFrame {
			select {
			case more, ok := <-wc.acks:
				if !ok {
					break coalesce
				}
				batch = append(batch, more)
			default:
				break coalesce
			}
		}
		for _, b := range batch {
			ws.met.ackCounter(b.Status).Inc()
		}
		if dead {
			continue
		}
		var err error
		buf, err = wire.EncodeAcks(buf[:0], batch)
		if err != nil {
			continue // unreachable: batch is 1..MaxAcksPerFrame
		}
		if wc.writeFrame(buf) != nil {
			dead = true
			wc.c.Close() // unblock the read loop
		}
	}
}
