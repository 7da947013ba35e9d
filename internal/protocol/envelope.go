package protocol

import (
	"bytes"
	"encoding/json"
	"net/url"
)

// Envelope is what each of the five envelope doors — submit, batch, MAC,
// sealed and commit — carries: a ciphertext sealed to the Auditor, the
// drone it is from and, on the MAC door only, the flight's session. Over
// HTTP the ciphertext is the raw request body and the two IDs ride in the
// query string, so a routing node reads them without touching the body;
// over the wire transport the same fields fill a Submit frame.
type Envelope struct {
	DroneID    string
	SessionID  string
	Ciphertext []byte
}

// ContentTypeEnvelope is the content type of an envelope door's body.
const ContentTypeEnvelope = "application/octet-stream"

// Query parameters of an envelope door.
const (
	QueryDrone   = "drone"
	QuerySession = "session"
)

// EnvelopeRequest is the request of an envelope door. The five request
// types keep their Go shape; FromEnvelope and EnvelopeOf convert.
type EnvelopeRequest interface {
	SubmitPoARequest | SubmitBatchPoARequest | SubmitMACPoARequest |
		SubmitSealedPoARequest | SubmitCommitPoARequest
}

// EnvelopeOf returns the envelope of an envelope-door request, and false
// for any other request.
func EnvelopeOf(req any) (Envelope, bool) {
	switch r := req.(type) {
	case SubmitPoARequest:
		return Envelope{DroneID: r.DroneID, Ciphertext: r.EncryptedPoA}, true
	case SubmitBatchPoARequest:
		return Envelope{DroneID: r.DroneID, Ciphertext: r.EncryptedBatch}, true
	case SubmitMACPoARequest:
		return Envelope{DroneID: r.DroneID, SessionID: r.SessionID, Ciphertext: r.EncryptedPoA}, true
	case SubmitSealedPoARequest:
		return Envelope{DroneID: r.DroneID, Ciphertext: r.EncryptedPoA}, true
	case SubmitCommitPoARequest:
		return Envelope{DroneID: r.DroneID, Ciphertext: r.EncryptedEnvelope}, true
	}
	return Envelope{}, false
}

// FromEnvelope builds an envelope door's request from its envelope.
func FromEnvelope[Req EnvelopeRequest](e Envelope) Req {
	var req Req
	switch r := any(&req).(type) {
	case *SubmitPoARequest:
		*r = SubmitPoARequest{DroneID: e.DroneID, EncryptedPoA: e.Ciphertext}
	case *SubmitBatchPoARequest:
		*r = SubmitBatchPoARequest{DroneID: e.DroneID, EncryptedBatch: e.Ciphertext}
	case *SubmitMACPoARequest:
		*r = SubmitMACPoARequest{DroneID: e.DroneID, SessionID: e.SessionID, EncryptedPoA: e.Ciphertext}
	case *SubmitSealedPoARequest:
		*r = SubmitSealedPoARequest{DroneID: e.DroneID, EncryptedPoA: e.Ciphertext}
	case *SubmitCommitPoARequest:
		*r = SubmitCommitPoARequest{DroneID: e.DroneID, EncryptedEnvelope: e.Ciphertext}
	}
	return req
}

// ParseEnvelope reads an envelope door's request: the IDs from the query
// string, the ciphertext from the body.
func ParseEnvelope(q url.Values, body []byte) Envelope {
	return Envelope{DroneID: q.Get(QueryDrone), SessionID: q.Get(QuerySession), Ciphertext: body}
}

// EncodeHTTPRequest is how every door request travels over HTTP, for the
// drone's client and for node-to-node forwards alike. An envelope door's
// body is its raw ciphertext with the IDs in query ("?drone=…"); any
// other door's body is the request as JSON, encoded into buf.
func EncodeHTTPRequest(buf *bytes.Buffer, req any) (body []byte, contentType, query string, err error) {
	if e, ok := EnvelopeOf(req); ok {
		q := url.Values{QueryDrone: {e.DroneID}}
		if e.SessionID != "" {
			q.Set(QuerySession, e.SessionID)
		}
		return e.Ciphertext, ContentTypeEnvelope, "?" + q.Encode(), nil
	}
	if err := json.NewEncoder(buf).Encode(req); err != nil {
		return nil, "", "", err
	}
	return buf.Bytes(), "application/json", "", nil
}
