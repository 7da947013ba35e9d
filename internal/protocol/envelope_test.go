package protocol

import (
	"bytes"
	"context"
	"encoding/json"
	"net/url"
	"reflect"
	"strings"
	"testing"
)

// envelopeRoundTrip sends req the way the HTTP client does and reads it
// back the way the auditor's envelope door does: the ciphertext travels as
// the raw body, the IDs in the query string.
func envelopeRoundTrip[Req EnvelopeRequest](t *testing.T, req Req) {
	t.Helper()
	want, ok := EnvelopeOf(req)
	if !ok {
		t.Fatalf("%T: not an envelope request", req)
	}
	var buf bytes.Buffer
	body, contentType, query, err := EncodeHTTPRequest(&buf, req)
	if err != nil {
		t.Fatal(err)
	}
	if contentType != ContentTypeEnvelope || !bytes.Equal(body, want.Ciphertext) || buf.Len() != 0 {
		t.Errorf("%T: body %q as %s, want the raw ciphertext", req, body, contentType)
	}
	q, err := url.ParseQuery(strings.TrimPrefix(query, "?"))
	if err != nil {
		t.Fatal(err)
	}
	e := ParseEnvelope(q, body)
	if !reflect.DeepEqual(e, want) {
		t.Errorf("%T: parsed envelope %+v, want %+v", req, e, want)
	}
	if got := FromEnvelope[Req](e); !reflect.DeepEqual(got, req) {
		t.Errorf("%T: round trip gave %+v, want %+v", req, got, req)
	}
}

func TestEnvelopeDoorsRoundTrip(t *testing.T) {
	ct := []byte{0x00, 0xff, '?', '&', '='}
	envelopeRoundTrip(t, SubmitPoARequest{DroneID: "drone-1", EncryptedPoA: ct})
	envelopeRoundTrip(t, SubmitBatchPoARequest{DroneID: "drone-1", EncryptedBatch: ct})
	envelopeRoundTrip(t, SubmitMACPoARequest{DroneID: "drone-1", SessionID: "session-s0-0001", EncryptedPoA: ct})
	envelopeRoundTrip(t, SubmitSealedPoARequest{DroneID: "drone-1", EncryptedPoA: ct})
	envelopeRoundTrip(t, SubmitCommitPoARequest{DroneID: "drone-1", EncryptedEnvelope: ct})
}

// TestJSONDoorEncoding: every other door travels as a JSON body.
func TestJSONDoorEncoding(t *testing.T) {
	req := RegisterDroneRequest{OperatorPub: "op", TEEPub: "tee", Suite: "ed25519"}
	if _, ok := EnvelopeOf(req); ok {
		t.Fatal("a registration is not an envelope request")
	}
	var buf bytes.Buffer
	body, contentType, query, err := EncodeHTTPRequest(&buf, req)
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "application/json" || query != "" {
		t.Errorf("content type %q, query %q", contentType, query)
	}
	var got RegisterDroneRequest
	if err := json.Unmarshal(body, &got); err != nil || got != req {
		t.Errorf("decoded %+v (%v), want %+v", got, err, req)
	}
	if _, _, _, err := EncodeHTTPRequest(&buf, func() {}); err == nil {
		t.Error("an unencodable request encoded")
	}
}

// fakeAPI is an API whose methods are never called.
type fakeAPI struct{ API }

// boundAPI records the context it was bound to.
type boundAPI struct {
	API
	ctx context.Context
}

func (b boundAPI) BindContext(ctx context.Context) API { return boundAPI{ctx: ctx} }

type ctxKey struct{}

func TestBindContext(t *testing.T) {
	ctx := context.WithValue(context.Background(), ctxKey{}, "mission")
	plain := fakeAPI{}
	if got := BindContext(ctx, plain); got != API(plain) {
		t.Errorf("an API without BindContext came back as %T", got)
	}
	got, ok := BindContext(ctx, boundAPI{}).(boundAPI)
	if !ok || got.ctx != ctx {
		t.Errorf("a ContextBinder was not bound: %+v", got)
	}
}
