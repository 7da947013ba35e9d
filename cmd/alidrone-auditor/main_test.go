package main

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"maps"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/auditor"
	"repro/internal/geo"
	"repro/internal/operator"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
	"repro/internal/storage"
	"repro/internal/tee"
	"repro/internal/trace"
)

var (
	departure = time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)
	home      = geo.LatLon{Lat: 40.1106, Lon: -88.2073}
)

// testOptions are the flag defaults with every listener on a loopback
// port the kernel picks.
func testOptions() options {
	return options{
		listen:    "127.0.0.1:0",
		retention: time.Hour,
		mode:      "exact",
		saveEvery: time.Minute,
		metrics:   true,
		sloWindow: time.Minute,
		nonceTTL:  time.Hour,
		shards:    1,
	}
}

// listenLine matches the log lines run prints once a listener is bound.
var listenLine = regexp.MustCompile(`(listening|wire transport|debug endpoints) on (\S+)`)

// addrLog is the standard logger's output while a test boots run: it
// forwards each bound listener's address, keyed by the word before "on".
type addrLog chan [2]string

func (a addrLog) Write(p []byte) (int, error) {
	if m := listenLine.FindSubmatch(p); m != nil {
		a <- [2]string{string(m[1]), string(m[2])}
	}
	return len(p), nil
}

// boot starts run and waits until its HTTP listener is bound. It returns
// the address of every listener run announced and a stop function that
// cancels run's context and returns run's error once it has drained.
func boot(t *testing.T, o options) (addrs map[string]string, stop func() error) {
	t.Helper()
	lines := make(addrLog, 4)
	log.SetOutput(lines)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, o) }()
	addrs = map[string]string{}
	for addrs["listening"] == "" {
		select {
		case l := <-lines:
			addrs[l[0]] = l[1]
		case err := <-done:
			cancel()
			t.Fatalf("run exited before serving: %v", err)
		case <-time.After(30 * time.Second):
			cancel()
			t.Fatal("run did not start listening")
		}
	}
	stopped := false
	stop = func() error {
		if stopped {
			return nil
		}
		stopped = true
		cancel()
		return <-done
	}
	t.Cleanup(func() { _ = stop() })
	return addrs, stop
}

// flight registers a drone against the auditor at base, registers one
// zone and flies a one-minute line past it.
func flight(t *testing.T, base string) (*operator.Drone, *operator.Proof) {
	t.Helper()
	api := operator.NewHTTPAuditor(base, nil)
	zoneResp, err := api.RegisterZone(protocol.RegisterZoneRequest{
		Owner: "alice",
		Zone:  geo.GeoCircle{Center: home.Offset(0, 150), R: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if zoneResp.ZoneID != "zone-0001" {
		t.Errorf("zone ID = %q, want zone-0001", zoneResp.ZoneID)
	}
	route, err := trace.ConstantSpeedLine(home, 90, 10, departure, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	platform, err := tee.NewPlatform(route, 5, sigcrypto.SuiteRSA1024, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	pub, err := api.FetchEncryptionPub()
	if err != nil {
		t.Fatal(err)
	}
	drone, err := operator.NewDrone(api, pub, platform.Device, platform.Clock, sigcrypto.KeySize1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := drone.Register(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(drone.ID(), "drone-") {
		t.Errorf("drone ID = %q", drone.ID())
	}
	proof, err := drone.Fly(context.Background(), platform.Receiver,
		[]geo.GeoCircle{{Center: home.Offset(0, 150), R: 6}}, route.End(),
		operator.FlightSpec{Mode: operator.ModeAdaptive})
	if err != nil {
		t.Fatal(err)
	}
	return drone, proof
}

// submit submits proof and returns the verdict.
func submit(t *testing.T, d *operator.Drone, proof *operator.Proof) protocol.Verdict {
	t.Helper()
	resp, err := d.SubmitProof(context.Background(), proof)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Verdict
}

// status reads GET /v1/status.
func status(t *testing.T, base string) protocol.StatusResponse {
	t.Helper()
	resp, err := http.Get(base + protocol.PathStatus)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st protocol.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRunStateDir boots the auditor on a state directory, verifies one
// flight, shuts it down and boots it again over the same directory: the
// verified PoA is still retained, the key survived (the drone's
// resubmission decrypts), and the resubmission is rejected as a replay.
func TestRunStateDir(t *testing.T) {
	o := testOptions()
	o.stateDir = filepath.Join(t.TempDir(), "state")
	o.shards = 2

	addrs, stop := boot(t, o)
	base := "http://" + addrs["listening"]
	drone, proof := flight(t, base)
	if v := submit(t, drone, proof); v != protocol.VerdictCompliant {
		t.Fatalf("first submission: %s, want compliant", v)
	}
	if err := stop(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, shard := range []string{"shard-0", "shard-1"} {
		if snaps, _ := filepath.Glob(filepath.Join(o.stateDir, shard, "snap-*")); len(snaps) == 0 {
			t.Errorf("%s has no snapshot after shutdown", shard)
		}
	}

	// Same port: the drone's client keeps its auditor URL.
	o.listen = addrs["listening"]
	addrs, stop = boot(t, o)
	if st := status(t, base); st.Drones != 1 || st.Zones != 1 || st.RetainedPoAs != 1 {
		t.Errorf("after restart: %+v, want 1 drone, 1 zone, 1 retained PoA", st)
	}
	if v := submit(t, drone, proof); v != protocol.VerdictViolation {
		t.Errorf("replayed submission after restart: %s, want violation", v)
	}
	if err := stop(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestRunInMemory boots the auditor without a state directory and with
// its wire and debug listeners on: a flight verifies, a replay is
// rejected while it runs, and a restart comes back empty.
func TestRunInMemory(t *testing.T) {
	o := testOptions()
	o.wireAddr = "127.0.0.1:0"
	o.debugAddr = "127.0.0.1:0"

	addrs, stop := boot(t, o)
	base := "http://" + addrs["listening"]
	drone, proof := flight(t, base)
	if v := submit(t, drone, proof); v != protocol.VerdictCompliant {
		t.Fatalf("first submission: %s, want compliant", v)
	}
	if v := submit(t, drone, proof); v != protocol.VerdictViolation {
		t.Errorf("replayed submission: %s, want violation", v)
	}
	for _, url := range []string{
		"http://" + addrs["debug endpoints"] + auditor.PathDebugTraces,
		base + auditor.PathReadyz,
		base + auditor.PathMetrics,
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %s", url, resp.Status)
		}
	}
	if addrs["wire transport"] == "" {
		t.Error("wire listener not announced")
	}
	if err := stop(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	addrs, _ = boot(t, o)
	if st := status(t, "http://"+addrs["listening"]); st.Drones != 0 || st.RetainedPoAs != 0 {
		t.Errorf("in-memory auditor kept state across a restart: %+v", st)
	}
}

// TestStandaloneServesNoClusterDoors: without -node-id the auditor must
// not hand out its private PoA key or import state; with it, the cluster
// doors are there.
func TestStandaloneServesNoClusterDoors(t *testing.T) {
	addrs, _ := boot(t, testOptions())
	base := "http://" + addrs["listening"]
	resp, err := http.Get(base + protocol.PathClusterKey)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET %s on a standalone node: %s, want 404", protocol.PathClusterKey, resp.Status)
	}
	resp, err = http.Post(base+protocol.PathClusterHandoff, "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST %s on a standalone node: %s, want 404", protocol.PathClusterHandoff, resp.Status)
	}

	o := testOptions()
	o.nodeID = "node-a"
	addrs, _ = boot(t, o)
	resp, err = http.Get("http://" + addrs["listening"] + protocol.PathClusterMap)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET %s on a cluster node: %s, want 200", protocol.PathClusterMap, resp.Status)
	}
}

// refusedRun runs with an already-cancelled context: a configuration
// run refuses comes back as an error, and one it accepts starts, drains
// at once and returns nil instead of serving forever.
func refusedRun(o options) error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return run(ctx, o)
}

func TestRunRejectsPeersWithoutNodeID(t *testing.T) {
	o := testOptions()
	o.peers = "node-b=127.0.0.1:1"
	if err := refusedRun(o); err == nil {
		t.Error("-peers without -node-id accepted")
	}
}

// TestRunRefusesRootLevelStateDir: a state directory written by a lone
// auditor before shard directories — WAL and snapshot at its root — is
// refused with the fix named, and nothing in it is touched.
func TestRunRefusesRootLevelStateDir(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.OpenFileStore(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := auditor.OpenServer(auditor.Config{}, st, ""); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirContents(t, dir)

	o := testOptions()
	o.stateDir = dir
	err = refusedRun(o)
	if err == nil || !strings.Contains(err.Error(), "shard-0") {
		t.Fatalf("root-level layout: err = %v, want a refusal naming shard-0", err)
	}
	if after := dirContents(t, dir); !maps.EqualFunc(before, after, bytes.Equal) {
		t.Errorf("refused start changed the directory: %d entries before, %d after", len(before), len(after))
	}
}

// dirContents maps every file name in dir to its bytes.
func dirContents(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil && !e.IsDir() {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

func TestRunRejectsBadMode(t *testing.T) {
	o := testOptions()
	o.mode = "sloppy"
	if err := refusedRun(o); err == nil {
		t.Error("unknown mode accepted")
	}
}
