package wire

// Codec invariants: every message round-trips through its frame, and
// malformed bodies fail with ErrBadMessage rather than panicking.
import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"
)

// readOne decodes a single frame from raw and returns its message type
// and body.
func readOne(t *testing.T, raw []byte) (byte, []byte) {
	t.Helper()
	kind, data, err := ReadFrame(bufio.NewReader(bytes.NewReader(raw)), MaxMessageBytes)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if kind != Version1 {
		t.Fatalf("frame version %#x, want %#x", kind, Version1)
	}
	typ, body, err := SplitType(data)
	if err != nil {
		t.Fatalf("SplitType: %v", err)
	}
	return typ, body
}

func TestSubmitRoundTrip(t *testing.T) {
	in := Submit{Seq: 0x1122334455667788, DroneID: "drone-00000001", Ciphertext: []byte("ciphertext bytes")}
	typ, body := readOne(t, EncodeSubmit(nil, in))
	if typ != TypeSubmit {
		t.Fatalf("type %#x, want TypeSubmit", typ)
	}
	out, err := DecodeSubmit(body)
	if err != nil {
		t.Fatalf("DecodeSubmit: %v", err)
	}
	if out.Seq != in.Seq || out.DroneID != in.DroneID || !bytes.Equal(out.Ciphertext, in.Ciphertext) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestAcksRoundTrip(t *testing.T) {
	in := []Ack{
		{Seq: 1, Status: StatusCompliant},
		{Seq: 2, Status: StatusViolation, InsufficientPairs: 7, Reason: "insufficient PoA"},
		{Seq: 3, Status: StatusOverloaded, RetryAfterMS: 2000},
		{Seq: 4, Status: StatusError, Reason: "store sealed"},
	}
	raw, err := EncodeAcks(nil, in)
	if err != nil {
		t.Fatalf("EncodeAcks: %v", err)
	}
	typ, body := readOne(t, raw)
	if typ != TypeAck {
		t.Fatalf("type %#x, want TypeAck", typ)
	}
	out, err := DecodeAcks(body)
	if err != nil {
		t.Fatalf("DecodeAcks: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d acks, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("ack %d mismatch: %+v vs %+v", i, out[i], in[i])
		}
	}
}

func TestAcksRejectBadCounts(t *testing.T) {
	if _, err := EncodeAcks(nil, nil); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("empty batch: got %v", err)
	}
	if _, err := EncodeAcks(nil, make([]Ack, MaxAcksPerFrame+1)); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("oversized batch: got %v", err)
	}
	// A count field larger than the actual entries must not over-allocate
	// or run past the body.
	raw, _ := EncodeAcks(nil, []Ack{{Seq: 1}})
	_, body := readOne(t, raw)
	body = append([]byte(nil), body...)
	body[0], body[1] = 0xff, 0x03 // claim 1023 acks
	if _, err := DecodeAcks(body); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("inflated count: got %v", err)
	}
}

func TestHandshakeRoundTrip(t *testing.T) {
	typ, body := readOne(t, EncodeHello(nil))
	if typ != TypeHello {
		t.Fatalf("type %#x, want TypeHello", typ)
	}
	if _, err := DecodeHello(body); err != nil {
		t.Fatalf("DecodeHello: %v", err)
	}

	typ, body = readOne(t, EncodeHelloAck(nil, HelloAck{Version: Version1}))
	if typ != TypeHelloAck {
		t.Fatalf("type %#x, want TypeHelloAck", typ)
	}
	ack, err := DecodeHelloAck(body)
	if err != nil || ack.Version != Version1 {
		t.Fatalf("DecodeHelloAck: %+v, %v", ack, err)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	typ, body := readOne(t, EncodeError(nil, WireError{Message: "unsupported version"}))
	if typ != TypeError {
		t.Fatalf("type %#x, want TypeError", typ)
	}
	we, err := DecodeError(body)
	if err != nil || we.Message != "unsupported version" {
		t.Fatalf("DecodeError: %+v, %v", we, err)
	}
}

func TestDecodeRejectsTruncatedBodies(t *testing.T) {
	sub := EncodeSubmit(nil, Submit{Seq: 9, DroneID: "d", Ciphertext: []byte("ct")})
	_, body := readOne(t, sub)
	for i := 0; i < len(body); i++ {
		if _, err := DecodeSubmit(body[:i]); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("truncated submit at %d: got %v", i, err)
		}
	}
	if _, err := DecodeSubmit(append(append([]byte(nil), body...), 0)); !errors.Is(err, ErrBadMessage) {
		t.Fatal("trailing byte accepted")
	}
}

func TestEncodeErrorTruncatesHugeMessage(t *testing.T) {
	raw := EncodeError(nil, WireError{Message: strings.Repeat("x", 1<<17)})
	_, body := readOne(t, raw)
	we, err := DecodeError(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(we.Message) != 1<<16-1 {
		t.Fatalf("message length %d, want clamp to uint16", len(we.Message))
	}
}
