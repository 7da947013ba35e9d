package tee

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/geo"
)

// FuzzCommitTraceRequest feeds hostile normal-world bytes to the secure
// world's CmdCommitTrace request decoder: it must never panic, must refuse
// with ErrBadPayload, and an accepted request must re-encode to itself.
func FuzzCommitTraceRequest(f *testing.F) {
	zones := []geo.GeoCircle{
		{Center: geo.LatLon{Lat: 40.11, Lon: -88.21}, R: 6.1},
		{Center: geo.LatLon{Lat: -90, Lon: 180}, R: 8046.7},
	}
	f.Add(EncodeCommitTraceRequest(nil, 0))
	f.Add(EncodeCommitTraceRequest(zones, geo.MaxDroneSpeedMPS))
	f.Add(EncodeCommitTraceRequest(zones[:1], -1))
	f.Add(EncodeCommitTraceRequest(zones[:1], math.NaN()))
	f.Add(EncodeCommitTraceRequest([]geo.GeoCircle{{R: math.Inf(1)}}, 1))
	f.Add([]byte(`{"zones":[],"vmaxMS":44.7}`))
	f.Add([]byte("\xff\xff"))
	f.Fuzz(func(t *testing.T, b []byte) {
		zones, vmaxMS, err := decodeCommitTraceRequest(b)
		if err != nil {
			if !errors.Is(err, ErrBadPayload) {
				t.Fatalf("refusal %v is not ErrBadPayload", err)
			}
			return
		}
		if again := EncodeCommitTraceRequest(zones, vmaxMS); !bytes.Equal(again, b) {
			t.Fatalf("accepted request re-encodes to %x, want %x", again, b)
		}
	})
}

// TestCommitTraceRequestRefusals: the secure world refuses a request that
// is cut, extended, names an invalid zone or carries a non-finite speed
// bound, and takes back exactly the zones and bound a valid one encodes.
func TestCommitTraceRequestRefusals(t *testing.T) {
	zone := geo.GeoCircle{Center: geo.LatLon{Lat: 40.2, Lon: -88.2}, R: 100}
	good := EncodeCommitTraceRequest([]geo.GeoCircle{zone}, 30)
	zones, vmax, err := decodeCommitTraceRequest(good)
	if err != nil || len(zones) != 1 || zones[0] != zone || vmax != 30 {
		t.Fatalf("valid request: %v, %v, %v", zones, vmax, err)
	}
	for name, b := range map[string][]byte{
		"cut":          good[:len(good)-1],
		"extended":     append(append([]byte(nil), good...), 0),
		"zero radius":  EncodeCommitTraceRequest([]geo.GeoCircle{{Center: zone.Center}}, 30),
		"latitude 91":  EncodeCommitTraceRequest([]geo.GeoCircle{{Center: geo.LatLon{Lat: 91}, R: 1}}, 30),
		"NaN bound":    EncodeCommitTraceRequest(nil, math.NaN()),
		"-Inf bound":   EncodeCommitTraceRequest(nil, math.Inf(-1)),
		"empty":        nil,
		"zone count 1": {0, 1, 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		if _, _, err := decodeCommitTraceRequest(b); !errors.Is(err, ErrBadPayload) {
			t.Errorf("%s: err = %v, want ErrBadPayload", name, err)
		}
	}
}
