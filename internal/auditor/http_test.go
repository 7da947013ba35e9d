package auditor

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
)

// httpFixture serves a registered-drone server over httptest.
func httpFixture(t *testing.T) (*httptest.Server, *Server, string, droneKeys) {
	t.Helper()
	srv, droneID, keys := newFixture(t)
	hs := httptest.NewServer(NewHandler(srv))
	t.Cleanup(hs.Close)
	return hs, srv, droneID, keys
}

// postJSON is a minimal test client. Envelope-door requests travel as
// the drone's client sends them: raw ciphertext, IDs in the query.
func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, contentType, query, err := protocol.EncodeHTTPRequest(new(bytes.Buffer), body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+query, contentType, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestHTTPStatusMapping(t *testing.T) {
	hs, _, droneID, _ := httpFixture(t)

	t.Run("unknown drone is 404", func(t *testing.T) {
		resp := postJSON(t, hs.URL+protocol.PathSubmitPoA, protocol.SubmitPoARequest{DroneID: "drone-999"})
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("status = %d", resp.StatusCode)
		}
	})
	t.Run("bad signature is 403", func(t *testing.T) {
		nonce := "00112233445566778899aabbccddeeff"
		resp := postJSON(t, hs.URL+protocol.PathZoneQuery, protocol.ZoneQueryRequest{
			DroneID: droneID, Nonce: nonce, Sig: []byte("bogus"),
			Area: geo.NewRect(geo.LatLon{Lat: 40, Lon: -89}, geo.LatLon{Lat: 41, Lon: -88}),
		})
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("status = %d", resp.StatusCode)
		}
	})
	t.Run("malformed JSON is 400", func(t *testing.T) {
		resp, err := http.Post(hs.URL+protocol.PathRegisterDrone, "application/json",
			bytes.NewReader([]byte("{not json")))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d", resp.StatusCode)
		}
	})
	t.Run("GET on POST endpoint is 405", func(t *testing.T) {
		resp, err := http.Get(hs.URL + protocol.PathSubmitPoA)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("status = %d", resp.StatusCode)
		}
	})
	t.Run("unknown session is 404", func(t *testing.T) {
		resp := postJSON(t, hs.URL+protocol.PathSubmitMACPoA, protocol.SubmitMACPoARequest{
			DroneID: droneID, SessionID: "session-999",
		})
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("status = %d", resp.StatusCode)
		}
	})
	t.Run("unknown stream is 404", func(t *testing.T) {
		resp := postJSON(t, hs.URL+protocol.PathStreamSample, protocol.StreamSampleRequest{StreamID: "stream-999"})
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("status = %d", resp.StatusCode)
		}
	})
}

func TestHTTPFullCycle(t *testing.T) {
	hs, srv, droneID, keys := httpFixture(t)

	// Register a zone over HTTP.
	resp := postJSON(t, hs.URL+protocol.PathRegisterZone, protocol.RegisterZoneRequest{
		Owner: "alice", Zone: geo.GeoCircle{Center: urbana.Offset(0, 5000), R: 100},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register zone status = %d", resp.StatusCode)
	}
	// Register a polygon zone over HTTP.
	resp = postJSON(t, hs.URL+protocol.PathRegisterPolygonZone, protocol.RegisterPolygonZoneRequest{
		Owner: "bob", Vertices: []geo.LatLon{
			urbana.Offset(180, 3000), urbana.Offset(180, 3000).Offset(90, 50),
			urbana.Offset(180, 3000).Offset(45, 70),
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register polygon status = %d", resp.StatusCode)
	}

	// Submit a PoA over HTTP.
	p := signedTrace(t, keys, urbana, 90, 10, 20, time.Second)
	ct := encryptFor(t, srv, p)
	resp = postJSON(t, hs.URL+protocol.PathSubmitPoA, protocol.SubmitPoARequest{
		DroneID: droneID, EncryptedPoA: ct,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var verdict protocol.SubmitPoAResponse
	if err := json.NewDecoder(resp.Body).Decode(&verdict); err != nil {
		t.Fatal(err)
	}
	if verdict.Verdict != protocol.VerdictCompliant {
		t.Fatalf("verdict = %v (%s)", verdict.Verdict, verdict.Reason)
	}

	// Status endpoint reflects it all.
	sresp, err := http.Get(hs.URL + protocol.PathStatus)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var status protocol.StatusResponse
	if err := json.NewDecoder(sresp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Drones != 1 || status.Zones != 2 || status.RetainedPoAs != 1 {
		t.Errorf("status = %+v", status)
	}
	if presp, err := http.Post(hs.URL+protocol.PathStatus, "", nil); err == nil {
		presp.Body.Close()
		if presp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST status endpoint = %d", presp.StatusCode)
		}
	}

	// Fetch the auditor public key.
	kresp, err := http.Get(hs.URL + protocol.PathAuditorPub)
	if err != nil {
		t.Fatal(err)
	}
	defer kresp.Body.Close()
	var kb struct {
		EncryptionPub string `json:"encryptionPub"`
	}
	if err := json.NewDecoder(kresp.Body).Decode(&kb); err != nil {
		t.Fatal(err)
	}
	pub, err := sigcrypto.UnmarshalPublicKey(kb.EncryptionPub)
	if err != nil {
		t.Fatal(err)
	}
	if pub.N.Cmp(srv.EncryptionPub().N) != 0 {
		t.Error("published key mismatch")
	}
}

// TestHTTPOversizedBodyIs413: a client-facing door stops reading at
// maxRequestBytes and answers 413 instead of decoding an unbounded body.
func TestHTTPOversizedBodyIs413(t *testing.T) {
	hs, _, droneID, _ := httpFixture(t)
	huge := protocol.SubmitPoARequest{DroneID: droneID, EncryptedPoA: make([]byte, maxRequestBytes+1)}
	resp := postJSON(t, hs.URL+protocol.PathSubmitPoA, huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status = %d, want 413", resp.StatusCode)
	}
	// The bound sits far above a legitimate body: a 300 KB ciphertext
	// (more than a 600-sample rsa2048 full PoA) reaches the pipeline and is
	// judged.
	legit := protocol.SubmitPoARequest{DroneID: droneID, EncryptedPoA: make([]byte, 300<<10)}
	resp = postJSON(t, hs.URL+protocol.PathSubmitPoA, legit)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("300 KB body: status = %d, want 200 (a violation verdict)", resp.StatusCode)
	}
}
