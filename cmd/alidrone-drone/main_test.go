package main

import (
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/auditor"
	"repro/internal/geo"
	"repro/internal/operator"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
	"repro/internal/trace"
)

func TestEndToEndAgainstHTTPServer(t *testing.T) {
	srv, err := auditor.NewServer(auditor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(auditor.NewHandler(srv))
	defer hs.Close()

	// A wire listener next to the HTTP one, for the -wire-addr cases.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := auditor.NewWireServer(srv, auditor.WireOptions{})
	go func() { _ = ws.Serve(lis) }()
	defer ws.Close()

	tests := []struct {
		name           string
		scenario, mode string
		storeDir       string
		suite          string
		rotateEvery    time.Duration
		fixed, gpsRate float64
		wire           bool
	}{
		{"airport adaptive", "airport", "adaptive", "", "", 0, 0, 1, false},
		{"airport fixed with store", "airport", "fixed", t.TempDir(), "", 0, 1, 5, false},
		{"airport batch", "airport", "batch", "", "", 0, 0, 1, false},
		{"airport mac", "airport", "mac", "", "", 0, 0, 1, false},
		{"airport streaming", "airport", "streaming", "", "", 0, 0, 1, false},
		{"airport adaptive ed25519", "airport", "adaptive", "", "ed25519", 0, 0, 1, false},
		{"airport adaptive ed25519 rotating", "airport", "adaptive", "", "ed25519", time.Minute, 0, 1, false},
		{"airport batch rsa2048 rotating", "airport", "batch", "", "rsa2048", time.Minute, 0, 1, false},
		{"airport adaptive over wire", "airport", "adaptive", "", "", 0, 0, 1, true},
		{"airport adaptive ed25519 over wire", "airport", "adaptive", "", "ed25519", 0, 0, 1, true},
		{"airport sealed", "airport", "sealed", "", "", 0, 0, 1, false},
		{"airport commit", "airport", "commit", "", "", 0, 0, 1, false},
		{"airport commit over wire", "airport", "commit", "", "", 0, 0, 1, true},
		{"residential fixed 1hz", "residential", "fixed", "", "", 0, 1, 1, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			args := []string{"-auditor", hs.URL, "-scenario", tt.scenario, "-mode", tt.mode,
				"-gps-rate", fmt.Sprint(tt.gpsRate), "-retries", "0"}
			if tt.storeDir != "" {
				args = append(args, "-store", tt.storeDir)
			}
			if tt.suite != "" {
				args = append(args, "-suite", tt.suite)
			}
			if tt.rotateEvery != 0 {
				args = append(args, "-rotate-every", tt.rotateEvery.String())
			}
			if tt.fixed != 0 {
				args = append(args, "-fixed-rate", fmt.Sprint(tt.fixed))
			}
			if tt.wire {
				args = append(args, "-wire-addr", lis.Addr().String(), "-wire-batch", "4", "-wire-flush-ms", "1")
			}
			// Metrics and trace dumping on for the first case exercise
			// the -dump-metrics and -dump-traces paths.
			if tt.mode == "adaptive" && tt.suite == "" && !tt.wire {
				args = append(args, "-dump-metrics", "-dump-traces")
			}
			o, err := parseOptions(args)
			if err != nil {
				t.Fatal(err)
			}
			if err := run(context.Background(), o); err != nil {
				t.Fatalf("drone run failed: %v", err)
			}
		})
	}
}

func TestParseOptions(t *testing.T) {
	o, err := parseOptions(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.suite != sigcrypto.SuiteRSA1024 || o.mode != operator.ModeAdaptive || o.disclosure != "" || o.traceSample != 0 {
		t.Errorf("defaults: suite %q mode %v disclosure %q trace-sample %v", o.suite, o.mode, o.disclosure, o.traceSample)
	}
	if o.wire.flush != 2*time.Millisecond || o.retry.Max != 3 {
		t.Errorf("defaults: wire flush %v retries %d", o.wire.flush, o.retry.Max)
	}

	// -dump-traces implies -trace-sample 1, but not over an explicit rate.
	if o, err = parseOptions([]string{"-dump-traces"}); err != nil || o.traceSample != 1 {
		t.Errorf("-dump-traces: trace-sample %v, err %v", o.traceSample, err)
	}
	if o, err = parseOptions([]string{"-dump-traces", "-trace-sample", "0.5"}); err != nil || o.traceSample != 0.5 {
		t.Errorf("-dump-traces -trace-sample 0.5: trace-sample %v, err %v", o.traceSample, err)
	}

	// The sealed and commit modes register their own disclosure; an
	// explicit -disclosure wins.
	if o, err = parseOptions([]string{"-mode", "commit"}); err != nil || o.disclosure != "commit" {
		t.Errorf("-mode commit: disclosure %q, err %v", o.disclosure, err)
	}
	if o, err = parseOptions([]string{"-mode", "sealed", "-disclosure", "full"}); err != nil || o.disclosure != "full" {
		t.Errorf("-mode sealed -disclosure full: disclosure %q, err %v", o.disclosure, err)
	}

	for _, args := range [][]string{
		{"-mode", "warp"},
		{"-suite", "rsa512"},
		{"-suite", ""},
		{"-disclosure", "partial"},
		{"-gps-rate", "fast"},
		{"-no-such-flag"},
	} {
		if _, err := parseOptions(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestRunBadArgs(t *testing.T) {
	o, err := parseOptions([]string{"-auditor", "http://localhost:1", "-scenario", "mars"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), o); err == nil {
		t.Error("unknown scenario accepted")
	}
	o, err = parseOptions([]string{"-auditor", "http://localhost:1", "-scenario", "airport", "-gps-rate", "9", "-retries", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), o); err == nil {
		t.Error("run against an unreachable auditor succeeded")
	}
}

// TestRunReportsAViolation flies the airport drive in streaming mode
// through a zone registered on its start point: the run still succeeds,
// and reports the streamed violation and the verdict's reason.
func TestRunReportsAViolation(t *testing.T) {
	srv, err := auditor.NewServer(auditor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := trace.NewAirportScenario(trace.DefaultAirportConfig(time.Now()))
	if err != nil {
		t.Fatal(err)
	}
	start := sc.Route.Position(sc.Route.Start()).Pos
	if _, err := srv.RegisterZone(protocol.RegisterZoneRequest{Owner: "bob", Zone: geo.GeoCircle{Center: start, R: 50}}); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(auditor.NewHandler(srv))
	defer hs.Close()

	o, err := parseOptions([]string{"-auditor", hs.URL, "-scenario", "airport", "-mode", "streaming", "-gps-rate", "1", "-retries", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}

	// A store directory that cannot be created fails the run up front.
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	if o, err = parseOptions([]string{"-auditor", hs.URL, "-scenario", "airport", "-store", filepath.Join(file, "flights")}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), o); err == nil {
		t.Error("run with an unusable -store succeeded")
	}
}
