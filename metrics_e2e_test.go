// End-to-end observability check: one full drone mission replayed over
// HTTP must leave non-zero per-stage verification timings and
// per-endpoint request counts on the auditor's /metrics endpoint, and
// non-zero TEE/sampler/client counters on the drone-side registry.
package alidrone

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/auditor"
	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
	"repro/internal/tee"
	"repro/internal/trace"
)

// expositionValue extracts the value of one exact series (name plus
// rendered label set) from Prometheus 0.0.4 text output.
func expositionValue(t *testing.T, text, series string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\S+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("series %q not found in exposition:\n%s", series, text)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("series %q: bad value %q: %v", series, m[1], err)
	}
	return v
}

func TestMissionReplayPopulatesMetrics(t *testing.T) {
	auditorReg := obs.NewRegistry(nil)
	srv, err := auditor.NewServer(auditor.Config{Metrics: auditorReg})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(auditor.NewHandler(srv))
	defer hs.Close()

	sc, err := trace.NewAirportScenario(trace.DefaultAirportConfig(benchStart))
	if err != nil {
		t.Fatal(err)
	}
	platform, err := tee.NewPlatform(sc.Route, 1, sigcrypto.SuiteRSA1024, nil)
	if err != nil {
		t.Fatal(err)
	}

	droneReg := obs.NewRegistry(nil)
	api := operator.NewHTTPAuditor(hs.URL, nil)
	api.SetMetrics(droneReg)
	auditorPub, err := api.FetchEncryptionPub()
	if err != nil {
		t.Fatal(err)
	}
	drone, err := operator.NewDrone(api, auditorPub, platform.Device, platform.Clock,
		sigcrypto.KeySize1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	drone.SetMetrics(droneReg)
	if err := drone.Register(); err != nil {
		t.Fatal(err)
	}
	rep, err := drone.RunMission(platform.Receiver, sc.Route, operator.MissionConfig{FlightSpec: operator.FlightSpec{Mode: operator.ModeAdaptive}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict.Verdict != protocol.VerdictCompliant {
		t.Fatalf("mission verdict = %s (%s), want compliant", rep.Verdict.Verdict, rep.Verdict.Reason)
	}

	// Auditor side: scrape /metrics over the same HTTP surface the
	// mission used.
	resp, err := http.Get(hs.URL + auditor.PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	exposition := string(body)

	for _, stage := range []string{
		auditor.StageSignature, auditor.StageChronology, auditor.StageSpeed, auditor.StageSufficiency,
	} {
		count := expositionValue(t, exposition,
			auditor.MetricVerifyStageSeconds+`_count{stage="`+stage+`"}`)
		if count < 1 {
			t.Errorf("stage %s: timing count = %v, want >= 1", stage, count)
		}
		sum := expositionValue(t, exposition,
			auditor.MetricVerifyStageSeconds+`_sum{stage="`+stage+`"}`)
		if sum <= 0 {
			t.Errorf("stage %s: timing sum = %v, want > 0", stage, sum)
		}
	}
	for _, path := range []string{
		protocol.PathRegisterDrone, protocol.PathAuditorPub, protocol.PathZoneQuery, protocol.PathSubmitPoA,
	} {
		if n := expositionValue(t, exposition,
			auditor.MetricHTTPRequestsTotal+`{path="`+path+`"}`); n < 1 {
			t.Errorf("endpoint %s: request count = %v, want >= 1", path, n)
		}
	}
	if n := expositionValue(t, exposition,
		auditor.MetricSubmissionsTotal+`{verdict="compliant"}`); n != 1 {
		t.Errorf("compliant submissions = %v, want 1", n)
	}
	if n := expositionValue(t, exposition, auditor.MetricRetainedPoAs); n != 1 {
		t.Errorf("retained PoAs = %v, want 1", n)
	}

	// Drone side: the shared registry must have seen TEE invocations,
	// sampler activity and HTTP client calls.
	var buf bytes.Buffer
	if err := droneReg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	droneText := buf.String()
	for _, series := range []string{
		tee.MetricSMCTotal,
		tee.MetricSignsTotal,
		`alidrone_sampler_reads_total{mode="adaptive"}`,
		`alidrone_sampler_auth_total{mode="adaptive"}`,
		`alidrone_client_requests_total{path="` + protocol.PathSubmitPoA + `"}`,
	} {
		if v := expositionValue(t, droneText, series); v < 1 {
			t.Errorf("drone series %s = %v, want >= 1", series, v)
		}
	}
	if strings.Contains(droneText, "alidrone_client_retries_total") {
		if v := expositionValue(t, droneText, "alidrone_client_retries_total"); v != 0 {
			t.Errorf("client retries = %v against a healthy auditor, want 0", v)
		}
	}
}
