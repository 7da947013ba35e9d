package auditor

// wireForwarder is the router's binary-transport peer client: when the
// owning node advertises a wire address, a mis-routed submission travels
// to it as a single Forward frame on a pooled wire.Conn instead of a full
// HTTP round trip. A peer that negotiated Version1 simply never sees the
// traceparent field (the trace breaks at the hop, nothing else does).

import (
	"context"
	"sync"
	"time"

	otrace "repro/internal/obs/trace"
	"repro/internal/protocol"
	"repro/internal/wire"
)

// fwdDialTimeout bounds a forwarder dial and handshake.
const fwdDialTimeout = 5 * time.Second

// wireForwarder pools one connection per peer wire address.
type wireForwarder struct {
	mu    sync.Mutex
	conns map[string]*wire.Conn
}

func newWireForwarder() *wireForwarder {
	return &wireForwarder{conns: make(map[string]*wire.Conn)}
}

// Close tears down every pooled connection.
func (f *wireForwarder) Close() {
	f.mu.Lock()
	conns := f.conns
	f.conns = make(map[string]*wire.Conn)
	f.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Submit forwards one submission to the owner's wire door and waits for
// its ack, carrying the context's trace across the hop. sent=false
// reports the wire transport unusable before any frame was written —
// dial, handshake, version refusal, a pooled connection that just died.
// Only then may the caller fall back to HTTP: after a write the frame may
// already be in the owner's pipeline, and a second delivery would trip
// its replay detection.
func (f *wireForwarder) Submit(ctx context.Context, wireAddr string, req protocol.SubmitPoARequest) (resp protocol.SubmitPoAResponse, err error, sent bool) {
	c, err := f.conn(wireAddr)
	if err != nil {
		return resp, err, false
	}
	p, err := c.Begin()
	if err != nil {
		return resp, err, false
	}
	frame := wire.EncodeForwardV(nil, c.Version(), wire.Forward{
		Seq: p.Seq, DroneID: req.DroneID, Ciphertext: req.EncryptedPoA,
		TraceParent: otrace.HeaderFromContext(ctx),
	})
	if err := c.Write(frame); err != nil {
		return resp, err, true
	}
	ack, err := p.Wait(ctx)
	if err != nil {
		return resp, err, true
	}
	resp, err = protocol.ResponseFromAck(req.DroneID, ack)
	return resp, err, true
}

// conn returns the pooled connection for addr, dialing on first use and
// replacing one that has failed.
func (f *wireForwarder) conn(addr string) (*wire.Conn, error) {
	f.mu.Lock()
	c := f.conns[addr]
	f.mu.Unlock()
	if c != nil && c.Err() == nil {
		return c, nil
	}
	nc, err := wire.Dial(addr, fwdDialTimeout)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	if cur := f.conns[addr]; cur != nil && cur.Err() == nil {
		// A concurrent dial won; use it and drop ours.
		f.mu.Unlock()
		nc.Close()
		return cur, nil
	}
	f.conns[addr] = nc
	f.mu.Unlock()
	return nc, nil
}
