// Exposition parity: a seeded commit flight and a streaming flight over
// HTTP, with every clock frozen, must leave exactly the series and values
// pinned in testdata/exposition_parity.golden on the drone-side registry
// (TEE, sampler, HTTP client) and on the auditor's, and the commit flight
// must produce the same envelope, Merkle root and sealed entries. The
// golden pins what the exposition says, so a change to how series are
// resolved or how the TEE hands its results to the normal world cannot
// add, drop or recount a series unnoticed.
package alidrone

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/auditor"
	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
	"repro/internal/tee"
	"repro/internal/trace"
	"repro/internal/zone"
)

const parityGolden = "testdata/exposition_parity.golden"

func TestExpositionParity(t *testing.T) {
	// One frozen clock drives every duration the registries record, so
	// each latency histogram is a function of its observation count; the
	// pool size the workers gauge reports is pinned, not GOMAXPROCS.
	clock := obs.NewFakeClock(benchStart)
	auditorReg := obs.NewRegistry(clock)
	srv, err := auditor.NewServer(auditor.Config{Metrics: auditorReg, Clock: clock, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(auditor.NewHandler(srv))
	defer hs.Close()

	sc, err := trace.NewResidentialScenario(trace.DefaultResidentialConfig(benchStart))
	if err != nil {
		t.Fatal(err)
	}
	for _, z := range sc.Zones {
		if _, err := srv.RegisterZone(protocol.RegisterZoneRequest{Owner: "parity", Zone: z}); err != nil {
			t.Fatal(err)
		}
	}

	droneReg := obs.NewRegistry(clock)
	api := operator.NewHTTPAuditor(hs.URL, nil)
	api.SetMetrics(droneReg)
	auditorPub, err := api.FetchEncryptionPub()
	if err != nil {
		t.Fatal(err)
	}
	fly := func(mode operator.SamplingMode, seed int64) (*operator.Drone, *operator.Proof) {
		t.Helper()
		// NewPlatform installs the sampler TA before the drone attaches
		// its registry to the device.
		p, err := tee.NewPlatform(sc.Route, 5, sigcrypto.SuiteEd25519, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		d, err := operator.NewDrone(api, auditorPub, p.Device, p.Clock, sigcrypto.KeySize1024, nil)
		if err != nil {
			t.Fatal(err)
		}
		d.SetMetrics(droneReg)
		if err := d.SetDisclosure(mode.Disclosure()); err != nil {
			t.Fatal(err)
		}
		if err := d.Register(); err != nil {
			t.Fatal(err)
		}
		zones, err := d.QueryZones(operator.RouteBounds(sc.Route, 2000))
		if err != nil {
			t.Fatal(err)
		}
		proof, err := d.Fly(context.Background(), p.Receiver, zone.Circles(zones), sc.Route.End(), operator.FlightSpec{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := d.SubmitProof(context.Background(), proof)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Verdict != protocol.VerdictCompliant {
			t.Fatalf("%s flight: verdict %s (%s), want compliant", mode, resp.Verdict, resp.Reason)
		}
		return d, proof
	}
	committer, commit := fly(operator.ModeCommit, 7)
	fly(operator.ModeStreaming, 8)

	var got bytes.Buffer
	leaves := sha256.New()
	for _, e := range committer.Secrets().Sealed.Entries {
		leaves.Write(e.LeafBytes())
	}
	fmt.Fprintf(&got, "# commit flight\nsigning_bytes_sha256 %x\nroot %x\nsealed_leaves_sha256 %x\n",
		sha256.Sum256(commit.Commit.SigningBytes()), commit.Commit.Root, leaves.Sum(nil))
	for _, side := range []struct {
		name string
		reg  *obs.Registry
	}{{"drone", droneReg}, {"auditor", auditorReg}} {
		fmt.Fprintf(&got, "# %s registry\n", side.name)
		if err := side.reg.WriteText(&got); err != nil {
			t.Fatal(err)
		}
	}

	want, err := os.ReadFile(parityGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %q\n want %q", parityGolden, i+1, g, w)
		}
	}
}
