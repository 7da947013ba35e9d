package wire

import (
	"bufio"
	"bytes"
	"testing"
)

// decodeOne reads one frame and returns its split type and body.
func decodeOne(t *testing.T, frame []byte) (byte, []byte) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(frame))
	_, data, err := ReadFrame(br, MaxMessageBytes)
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	typ, body, err := SplitType(data)
	if err != nil {
		t.Fatalf("split type: %v", err)
	}
	return typ, body
}

func TestForwardRoundTrip(t *testing.T) {
	in := Forward{Seq: 77, DroneID: "drone-00deadbeef", Ciphertext: []byte("opaque ct")}
	typ, body := decodeOne(t, EncodeForwardV(nil, Version1, in))
	if typ != TypeForward {
		t.Fatalf("type = %#x, want TypeForward", typ)
	}
	out, err := DecodeForwardV(Version1, body)
	if err != nil {
		t.Fatal(err)
	}
	if out.Seq != in.Seq || out.DroneID != in.DroneID || !bytes.Equal(out.Ciphertext, in.Ciphertext) {
		t.Fatalf("round trip drift: %+v vs %+v", out, in)
	}
	// The forwarded payload layout is intentionally identical to Submit,
	// so the owner's pipeline entry needs no translation.
	sub, err := DecodeSubmit(body)
	if err != nil || sub.Seq != in.Seq || sub.DroneID != in.DroneID {
		t.Fatalf("forward body must decode as a submit body: %+v, %v", sub, err)
	}
}

func TestForwardV2RoundTrip(t *testing.T) {
	in := Forward{
		Seq: 78, DroneID: "drone-00deadbeef", Ciphertext: []byte("opaque ct"),
		TraceParent: "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01",
	}
	frame := EncodeForwardV(nil, Version2, in)
	br := bufio.NewReader(bytes.NewReader(frame))
	version, data, err := ReadFrame(br, MaxMessageBytes)
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	if version != Version2 {
		t.Fatalf("frame version = %d, want Version2", version)
	}
	typ, body, err := SplitType(data)
	if err != nil || typ != TypeForward {
		t.Fatalf("type = %#x (%v), want TypeForward", typ, err)
	}
	out, err := DecodeForwardV(version, body)
	if err != nil {
		t.Fatal(err)
	}
	if out.Seq != in.Seq || out.DroneID != in.DroneID ||
		!bytes.Equal(out.Ciphertext, in.Ciphertext) || out.TraceParent != in.TraceParent {
		t.Fatalf("v2 round trip drift: %+v vs %+v", out, in)
	}
	// A Version1 decode of a V2 body must reject the trailing traceparent
	// bytes, never silently misparse them.
	if _, err := DecodeForwardV(Version1, body); err == nil {
		t.Error("v1 decoder accepted a v2 forward body")
	}
	// A V2 frame with an empty traceparent still round-trips.
	in.TraceParent = ""
	_, body2 := decodeOne(t, EncodeForwardV(nil, Version2, in))
	out2, err := DecodeForwardV(Version2, body2)
	if err != nil || out2.TraceParent != "" {
		t.Fatalf("empty traceparent drift: %+v, %v", out2, err)
	}
}

func TestForwardV1LayoutUnchanged(t *testing.T) {
	// The compatibility encoder must keep emitting the exact Version1
	// layout (Submit-identical) even though the struct grew a field.
	in := Forward{Seq: 5, DroneID: "d", Ciphertext: []byte("x"), TraceParent: "dropped-at-v1"}
	_, body := decodeOne(t, EncodeForwardV(nil, Version1, in))
	out, err := DecodeForwardV(Version1, body)
	if err != nil {
		t.Fatal(err)
	}
	if out.TraceParent != "" {
		t.Fatalf("v1 body carried a traceparent: %q", out.TraceParent)
	}
	if _, err := DecodeSubmit(body); err != nil {
		t.Fatalf("v1 forward body no longer decodes as submit: %v", err)
	}
}

func TestForwardDecodeRejectsGarbage(t *testing.T) {
	for _, body := range [][]byte{
		nil,
		{1, 2, 3},                           // short seq
		append(make([]byte, 8), 0xff, 0xff), // str16 length runs past body
	} {
		if _, err := DecodeForwardV(Version1, body); err == nil {
			t.Errorf("DecodeForwardV(Version1, %v): want error", body)
		}
	}
	// Trailing bytes after a valid forward are a framing error.
	full := EncodeForwardV(nil, Version1, Forward{Seq: 1, DroneID: "d", Ciphertext: []byte("x")})
	_, body := decodeOne(t, full)
	if _, err := DecodeForwardV(Version1, append(body, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}
