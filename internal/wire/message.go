package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Protocol versions. The version travels in the frame kind byte, so a
// reader rejects an incompatible peer before touching the message body.
const (
	// Version1 is the original protocol: Hello/HelloAck, Submit/Ack and
	// Forward with no optional fields.
	Version1 byte = 1
	// Version2 extends Forward with a trailing traceparent field, so a
	// cross-node forward continues the submitter's trace on the owner.
	// Everything else is byte-identical to Version1.
	Version2 byte = 2
	// Version3 adds the commit-disclosure frame, SubmitCommit. Frames
	// shared with older versions stay byte-identical.
	Version3 byte = 3
	// LatestVersion is the newest version this build speaks; handshakes
	// open at it and downgrade when the peer only speaks an older one.
	LatestVersion = Version3
)

// SupportedVersion reports whether this build decodes frames of version v.
func SupportedVersion(v byte) bool { return v >= Version1 && v <= Version3 }

// MaxMessageBytes bounds one network frame payload. It is far below the
// WAL's 64 MiB record bound: a transport peer is untrusted, and no
// legitimate submission (a few KB of ciphertext) comes anywhere near it.
const MaxMessageBytes = 1 << 20 // 1 MiB

// MaxAcksPerFrame bounds how many acks one coalesced Ack frame carries.
const MaxAcksPerFrame = 1024

// Message types, the first byte of every frame payload's data. 0x03,
// 0x04, 0x13 and 0x14 were registration, cluster-map and gossip frames
// that no binary ever sent; they are retired and decode as unknown types.
const (
	// TypeHello opens a connection: the client's first frame, empty body.
	// The frame kind byte carries the client's protocol version.
	TypeHello byte = 0x01
	// TypeHelloAck answers Hello with the version the server accepted.
	TypeHelloAck byte = 0x02
	// TypeSubmit carries one PoA submission.
	TypeSubmit byte = 0x10
	// TypeAck carries a batch of coalesced submission acks.
	TypeAck byte = 0x11
	// TypeForward carries a submission forwarded between cluster nodes:
	// the same payload as TypeSubmit (plus the traceparent from Version2),
	// executed on the receiver's local shards only. Acked like a Submit.
	TypeForward byte = 0x12
	// TypeSubmitCommit carries one commit-mode submission: the same shape
	// as TypeSubmit, Version3 only; acked like a Submit.
	TypeSubmitCommit byte = 0x15
	// TypeError is a fatal protocol error; the sender closes after it.
	TypeError byte = 0x7f
)

// Ack status codes.
const (
	// StatusCompliant / StatusViolation map the auditor's two verdicts.
	StatusCompliant byte = 0
	StatusViolation byte = 1
	// StatusOverloaded is the 429 equivalent: the admission controller
	// shed the submission; RetryAfterMS carries the backoff hint.
	StatusOverloaded byte = 2
	// StatusError is an internal auditor error (HTTP 5xx equivalent).
	StatusError byte = 3
)

// Codec error taxonomy.
var (
	ErrBadMessage     = errors.New("wire: malformed message")
	ErrUnknownType    = errors.New("wire: unknown message type")
	ErrUnknownVersion = errors.New("wire: unsupported protocol version")
)

// Hello is the connection-opening handshake message.
type Hello struct{}

// HelloAck acknowledges a Hello with the accepted version.
type HelloAck struct {
	Version byte
}

// Submit is one PoA submission in flight on a wire connection. Seq is a
// client-chosen correlation number echoed in the matching Ack, which is
// what lets many submissions share one connection out of order.
//
// The three submission frames share this shape and body layout: Submit, its
// commit-mode twin SubmitCommit (the ciphertext decrypts to a commit
// envelope), and Forward — a Submit re-emitted by a cluster node to the
// drone's owner, which executes it locally only and never forwards it
// again (single-hop guard). All three are answered by an Ack with the
// same Seq.
type Submit struct {
	Seq        uint64
	DroneID    string
	Ciphertext []byte
	// TraceParent is the W3C traceparent of the span that decided to
	// forward, so the owner continues the same trace. Only a Forward frame
	// at Version2 or later carries it, as a trailing str16 (empty = no
	// trace); every other encoding ignores it and stays byte-identical to
	// Version1.
	TraceParent string
}

// Forward is a Submit travelling in a Forward frame.
type Forward = Submit

// Ack is the verdict (or shed/error outcome) for one submission.
type Ack struct {
	Seq               uint64
	Status            byte
	RetryAfterMS      uint32 // backoff hint, StatusOverloaded only
	InsufficientPairs uint16
	Reason            string
}

// WireError is a fatal protocol error message.
type WireError struct {
	Message string
}

// SplitType splits a frame payload's data into its message-type tag and
// body.
func SplitType(data []byte) (typ byte, body []byte, err error) {
	if len(data) == 0 {
		return 0, nil, fmt.Errorf("%w: empty message", ErrBadMessage)
	}
	return data[0], data[1:], nil
}

// --- primitive append/consume helpers -----------------------------------

func appendStr16(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func takeStr16(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("%w: short string length", ErrBadMessage)
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, fmt.Errorf("%w: string runs past body", ErrBadMessage)
	}
	return string(b[:n]), b[n:], nil
}

func appendBytes32(dst []byte, p []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p)))
	return append(dst, p...)
}

func takeBytes32(b []byte) ([]byte, []byte, error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("%w: short byte-slice length", ErrBadMessage)
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint64(len(b)) < uint64(n) {
		return nil, nil, fmt.Errorf("%w: byte slice runs past body", ErrBadMessage)
	}
	return b[:n], b[n:], nil
}

// --- message encode/decode ----------------------------------------------
//
// Every Encode* appends a complete frame (header + version + type + body)
// to dst and returns the extended slice, so a batched sender can stack
// several messages in one buffer and issue a single Write. Every Decode*
// takes the body (after SplitType) and must tolerate arbitrary input —
// the fuzz target drives them with garbage.

// EncodeHelloV appends a Hello frame at the given protocol version — the
// version the dialer proposes; the server echoes the version it accepted
// in HelloAck.
func EncodeHelloV(dst []byte, version byte) []byte {
	return AppendFrame(dst, version, []byte{TypeHello})
}

// DecodeHello decodes a Hello body.
func DecodeHello(body []byte) (Hello, error) {
	if len(body) != 0 {
		return Hello{}, fmt.Errorf("%w: hello carries a body", ErrBadMessage)
	}
	return Hello{}, nil
}

// EncodeHelloAck appends a HelloAck frame.
func EncodeHelloAck(dst []byte, a HelloAck) []byte {
	return AppendFrame(dst, Version1, []byte{TypeHelloAck, a.Version})
}

// DecodeHelloAck decodes a HelloAck body.
func DecodeHelloAck(body []byte) (HelloAck, error) {
	if len(body) != 1 {
		return HelloAck{}, fmt.Errorf("%w: hello-ack body must be 1 byte", ErrBadMessage)
	}
	return HelloAck{Version: body[0]}, nil
}

// EncodeSubmit appends a Submit frame.
func EncodeSubmit(dst []byte, s Submit) []byte {
	return appendSubmission(dst, Version1, TypeSubmit, s)
}

// EncodeSubmitCommit appends a SubmitCommit frame, travelling at Version3
// so pre-disclosure peers reject it at the frame header rather than
// mis-reading the body.
func EncodeSubmitCommit(dst []byte, s Submit) []byte {
	return appendSubmission(dst, Version3, TypeSubmitCommit, s)
}

// EncodeForwardV appends a Forward frame at the negotiated protocol
// version. Version2 and later carry the traceparent; Version1 omits it.
func EncodeForwardV(dst []byte, version byte, f Forward) []byte {
	return appendSubmission(dst, version, TypeForward, f)
}

// hasTraceParent reports whether a typ frame at version carries the
// trailing traceparent field.
func hasTraceParent(version, typ byte) bool {
	return typ == TypeForward && version >= Version2
}

func appendSubmission(dst []byte, version, typ byte, s Submit) []byte {
	body := make([]byte, 0, 1+8+2+len(s.DroneID)+4+len(s.Ciphertext)+2+len(s.TraceParent))
	body = append(body, typ)
	body = binary.LittleEndian.AppendUint64(body, s.Seq)
	body = appendStr16(body, s.DroneID)
	body = appendBytes32(body, s.Ciphertext)
	if hasTraceParent(version, typ) {
		body = appendStr16(body, s.TraceParent)
	}
	return AppendFrame(dst, version, body)
}

// DecodeSubmit decodes a Submit body. The ciphertext is copied out of
// the frame buffer, so the caller may retain it.
func DecodeSubmit(body []byte) (Submit, error) {
	return decodeSubmission(Version1, TypeSubmit, body, "submit")
}

// DecodeSubmitCommit decodes a SubmitCommit body.
func DecodeSubmitCommit(body []byte) (Submit, error) {
	return decodeSubmission(Version3, TypeSubmitCommit, body, "submit-commit")
}

// DecodeForwardV decodes a Forward body framed at the given version: the
// trailing traceparent field exists only from Version2 on.
func DecodeForwardV(version byte, body []byte) (Forward, error) {
	return decodeSubmission(version, TypeForward, body, "forward")
}

func decodeSubmission(version, typ byte, body []byte, what string) (Submit, error) {
	var s Submit
	if len(body) < 8 {
		return s, fmt.Errorf("%w: short %s seq", ErrBadMessage, what)
	}
	s.Seq = binary.LittleEndian.Uint64(body)
	body = body[8:]
	var err error
	if s.DroneID, body, err = takeStr16(body); err != nil {
		return s, err
	}
	var ct []byte
	if ct, body, err = takeBytes32(body); err != nil {
		return s, err
	}
	if hasTraceParent(version, typ) {
		if s.TraceParent, body, err = takeStr16(body); err != nil {
			return s, err
		}
	}
	if len(body) != 0 {
		return s, fmt.Errorf("%w: %d trailing bytes after %s", ErrBadMessage, len(body), what)
	}
	s.Ciphertext = append([]byte(nil), ct...)
	return s, nil
}

// EncodeAcks appends one coalesced Ack frame carrying every ack in the
// slice (at most MaxAcksPerFrame).
func EncodeAcks(dst []byte, acks []Ack) ([]byte, error) {
	if len(acks) == 0 || len(acks) > MaxAcksPerFrame {
		return dst, fmt.Errorf("%w: %d acks in one frame", ErrBadMessage, len(acks))
	}
	body := make([]byte, 0, 1+2+len(acks)*24)
	body = append(body, TypeAck)
	body = binary.LittleEndian.AppendUint16(body, uint16(len(acks)))
	for _, a := range acks {
		if len(a.Reason) > math.MaxUint16 {
			a.Reason = a.Reason[:math.MaxUint16]
		}
		body = binary.LittleEndian.AppendUint64(body, a.Seq)
		body = append(body, a.Status)
		body = binary.LittleEndian.AppendUint32(body, a.RetryAfterMS)
		body = binary.LittleEndian.AppendUint16(body, a.InsufficientPairs)
		body = appendStr16(body, a.Reason)
	}
	return AppendFrame(dst, Version1, body), nil
}

// DecodeAcks decodes an Ack frame body into its ack list.
func DecodeAcks(body []byte) ([]Ack, error) {
	if len(body) < 2 {
		return nil, fmt.Errorf("%w: short ack count", ErrBadMessage)
	}
	n := int(binary.LittleEndian.Uint16(body))
	body = body[2:]
	if n == 0 || n > MaxAcksPerFrame {
		return nil, fmt.Errorf("%w: %d acks in one frame", ErrBadMessage, n)
	}
	acks := make([]Ack, 0, n)
	for i := 0; i < n; i++ {
		if len(body) < 8+1+4+2 {
			return nil, fmt.Errorf("%w: ack %d runs past body", ErrBadMessage, i)
		}
		var a Ack
		a.Seq = binary.LittleEndian.Uint64(body)
		a.Status = body[8]
		a.RetryAfterMS = binary.LittleEndian.Uint32(body[9:])
		a.InsufficientPairs = binary.LittleEndian.Uint16(body[13:])
		body = body[15:]
		var err error
		if a.Reason, body, err = takeStr16(body); err != nil {
			return nil, err
		}
		acks = append(acks, a)
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after acks", ErrBadMessage, len(body))
	}
	return acks, nil
}

// EncodeError appends an Error frame.
func EncodeError(dst []byte, e WireError) []byte {
	msg := e.Message
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	body := []byte{TypeError}
	body = appendStr16(body, msg)
	return AppendFrame(dst, Version1, body)
}

// DecodeError decodes an Error body.
func DecodeError(body []byte) (WireError, error) {
	msg, rest, err := takeStr16(body)
	if err != nil {
		return WireError{}, err
	}
	if len(rest) != 0 {
		return WireError{}, fmt.Errorf("%w: trailing bytes after error", ErrBadMessage)
	}
	return WireError{Message: msg}, nil
}
