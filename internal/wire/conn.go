package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"
)

// ErrConnLost reports that a client connection failed: every submission
// awaiting its ack on it is released with an error wrapping this one.
// The peer may or may not have processed what was already written.
var ErrConnLost = errors.New("wire: connection lost")

// Conn is the client half of the transport: one handshaken connection
// carrying many pipelined submissions, each correlated with its ack by a
// connection-scoped sequence number. The drone client and the cluster
// forwarder both sit on it; what differs between them (batching, pooling,
// redial policy) lives with them. A Conn is safe for concurrent use and
// is dead for good after its first failure.
type Conn struct {
	nc      net.Conn
	version byte
	done    chan struct{} // closed when the read loop has exited

	wmu sync.Mutex // serialises Write

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]chan Ack
	err     error // first failure, wrapping ErrConnLost
}

// Dial connects to a wire listener and performs the Hello/HelloAck
// handshake, proposing LatestVersion and redialing at Version1 when the
// peer refuses it. timeout bounds each connect and each handshake.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	c, err := dialVersion(addr, LatestVersion, timeout)
	if errors.Is(err, ErrUnknownVersion) {
		c, err = dialVersion(addr, Version1, timeout)
	}
	return c, err
}

func dialVersion(addr string, version byte, timeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("wire dial %s: %w", addr, err)
	}
	_ = nc.SetDeadline(time.Now().Add(timeout)) // a refused deadline only loses the handshake bound
	br := bufio.NewReaderSize(nc, 64<<10)
	accepted, err := handshake(nc, br, version)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("wire handshake with %s: %w", addr, err)
	}
	_ = nc.SetDeadline(time.Time{})
	c := &Conn{nc: nc, version: accepted, done: make(chan struct{}), pending: make(map[uint64]chan Ack)}
	go c.readLoop(br)
	return c, nil
}

// handshake proposes version and returns the one the peer accepted — the
// proposal or an older one this build still speaks. A peer refusing the
// proposal outright answers with an Error frame naming ErrUnknownVersion.
func handshake(nc net.Conn, br *bufio.Reader, version byte) (byte, error) {
	if _, err := nc.Write(EncodeHelloV(nil, version)); err != nil {
		return 0, err
	}
	_, data, err := ReadFrame(br, MaxMessageBytes)
	if err != nil {
		return 0, err
	}
	typ, body, err := SplitType(data)
	if err != nil {
		return 0, err
	}
	switch typ {
	case TypeHelloAck:
		ack, err := DecodeHelloAck(body)
		if err != nil {
			return 0, err
		}
		if !SupportedVersion(ack.Version) || ack.Version > version {
			return 0, fmt.Errorf("peer accepted version %d, proposed %d", ack.Version, version)
		}
		return ack.Version, nil
	case TypeError:
		we, err := DecodeError(body)
		if err != nil {
			return 0, err
		}
		if strings.Contains(we.Message, ErrUnknownVersion.Error()) {
			return 0, fmt.Errorf("%w: peer refused version %d", ErrUnknownVersion, version)
		}
		return 0, fmt.Errorf("peer rejected hello: %s", we.Message)
	default:
		return 0, fmt.Errorf("%w: %#x in reply to hello", ErrUnknownType, typ)
	}
}

// Version returns the negotiated protocol version; frames written on the
// connection must not use fields newer than it.
func (c *Conn) Version() byte { return c.version }

// Err returns nil while the connection is usable and its first failure
// (wrapping ErrConnLost) afterwards.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close tears the connection down, releases every pending waiter and
// returns once the read loop has exited.
func (c *Conn) Close() error {
	c.fail(errors.New("closed locally"))
	<-c.done
	return nil
}

// fail marks the connection dead, closes it and releases every pending
// waiter exactly once: a waiter's channel is either sent its ack (under
// mu, by the read loop) or closed here, never both.
func (c *Conn) fail(cause error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = fmt.Errorf("%w: %w", ErrConnLost, cause)
	}
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	c.nc.Close()
	for _, ch := range pending {
		close(ch)
	}
}

// Pending is one submission awaiting its ack.
type Pending struct {
	// Seq is the sequence number the submission's frame must carry.
	Seq uint64
	c   *Conn
	ch  chan Ack
}

// Begin allocates the next sequence number and registers a waiter for its
// ack. The caller encodes a frame carrying p.Seq, hands it to Write
// (alone or batched with others) and then calls p.Wait.
func (c *Conn) Begin() (Pending, error) {
	ch := make(chan Ack, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return Pending{}, c.err
	}
	c.seq++
	c.pending[c.seq] = ch
	return Pending{Seq: c.seq, c: c, ch: ch}, nil
}

// Write sends one or more pre-encoded frames in a single write. A failed
// write kills the connection: part of a frame may be on the wire.
func (c *Conn) Write(frames []byte) error {
	c.wmu.Lock()
	_, err := c.nc.Write(frames)
	c.wmu.Unlock()
	if err != nil {
		c.fail(err)
		return c.Err()
	}
	return nil
}

// Wait blocks until the submission's ack arrives, the connection fails
// (an error wrapping ErrConnLost) or ctx ends (ctx.Err(); the waiter is
// removed and a late ack is dropped).
func (p Pending) Wait(ctx context.Context) (Ack, error) {
	select {
	case ack, ok := <-p.ch:
		if !ok {
			return Ack{}, p.c.Err()
		}
		return ack, nil
	case <-ctx.Done():
		p.c.mu.Lock()
		delete(p.c.pending, p.Seq)
		p.c.mu.Unlock()
		return Ack{}, ctx.Err()
	}
}

// readLoop hands coalesced acks to their waiters until the connection
// dies. Anything but an Ack is fatal: the peer has nothing else to say on
// a client connection, and a stream that surprised us once is not trusted
// to stay in sync.
func (c *Conn) readLoop(br *bufio.Reader) {
	defer close(c.done)
	for {
		version, data, err := ReadFrame(br, MaxMessageBytes)
		if err == nil && !SupportedVersion(version) {
			err = fmt.Errorf("%w: peer sent version %d", ErrUnknownVersion, version)
		}
		if err == nil {
			err = c.deliver(data)
		}
		if err != nil {
			c.fail(err)
			return
		}
	}
}

// deliver decodes one inbound frame payload and routes its acks.
func (c *Conn) deliver(data []byte) error {
	typ, body, err := SplitType(data)
	if err != nil {
		return err
	}
	switch typ {
	case TypeAck:
		acks, err := DecodeAcks(body)
		if err != nil {
			return err
		}
		c.mu.Lock()
		for _, a := range acks {
			if ch, ok := c.pending[a.Seq]; ok {
				delete(c.pending, a.Seq)
				ch <- a // buffered: never blocks
			}
		}
		c.mu.Unlock()
		return nil
	case TypeError:
		we, err := DecodeError(body)
		if err != nil {
			return err
		}
		return fmt.Errorf("peer error: %s", we.Message)
	default:
		return fmt.Errorf("%w: %#x from peer", ErrUnknownType, typ)
	}
}
