package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is BENCHMARK.json as the driver reads it.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesProgram holds BENCHMARK.json and the program's metric and
// workload names equal, both ways and in order.
func TestSpecMatchesProgram(t *testing.T) {
	spec := loadSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, program default window = %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloadWhy) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloadWhy))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadWhy[i][0] || w.Why != workloadWhy[i][1] {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program has %q (%q)", i, w.Name, w.Why, workloadWhy[i][0], workloadWhy[i][1])
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	check := func(section string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", section, len(got), len(want))
		}
		seen := make(map[string]bool)
		for i, m := range got {
			if m.Name != want[i].Name || m.Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program has %s (%s)", section, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s: %q (%q) is not a valid, unique name and unit", section, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %s: better = %q", section, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: %s: bound %v outside (0, 0.25]", section, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(spec.EndToEnd), len(spec.PerLayer))
	}
}

// TestSmoke runs every workload untraced and traced with short windows:
// no timing assertions, only that each run is correct and reports exactly
// the metrics BENCHMARK.json lists for its mode.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real flights for ~20 s")
	}
	for _, w := range workloadWhy {
		for _, traced := range []bool{false, true} {
			o := options{workload: w[0], seed: 7, seconds: 0.6, trace: traced, out: t.TempDir(),
				warmup: 200 * time.Millisecond, setups: 1}
			var out bytes.Buffer
			if err := runOne(o, &out); err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w[0], traced, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result object: %v", w[0], traced, err)
			}
			if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
				t.Errorf("%s traced=%v: result %s", w[0], traced, lines[len(lines)-1])
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, want %d", w[0], traced, len(res.Metrics), len(want))
			}
			for _, def := range want {
				m, ok := res.Metrics[def.Name]
				if !ok || m.Value == nil || m.Unit != def.Unit {
					t.Errorf("%s traced=%v: metric %s missing or with the wrong unit", w[0], traced, def.Name)
				} else if !traced && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w[0], def.Name, *m.Value)
				}
			}
			if traced {
				if share := *res.Metrics["obs.attributed_share"].Value; share < 0.95 {
					t.Errorf("%s: layers account for %.1f%% of traced op time, want >= 95%%", w[0], 100*share)
				}
			}
		}
	}
}

// TestGeneratorIsAFunctionOfTheSeed: one seed, the same inputs byte for
// byte; another seed, other inputs.
func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloadWhy {
		a, b, c := newPlan(w[0], 1, 2).digest(), newPlan(w[0], 1, 2).digest(), newPlan(w[0], 2, 2).digest()
		if a != b {
			t.Errorf("%s: seed 1 generated two different inputs", w[0])
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", w[0])
		}
	}
}

func mkSpan(id, parent uint64, name string, start, end int64) span {
	return span{id: id, parent: parent, name: name, start: start, end: end, drone: "d"}
}

// TestSelfTimeArithmetic: children are clipped to their parent, self time
// is what no child covers, and a tree's self times sum to its root.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		mkSpan(1, 0, spanOpFlight, 0, 1000),
		mkSpan(2, 1, spanFly, 10, 400),
		mkSpan(3, 2, spanFix, 20, 50),
		mkSpan(4, 2, spanFix, 60, 90),
		mkSpan(5, 1, spanSubmit, 400, 990),
		mkSpan(6, 5, spanCall, 500, 980),
		mkSpan(7, 6, "http.client /v1/submit-poa", 510, 975),
		// The handler's span ends after its client's: clipped to 975.
		mkSpan(8, 7, "auditor /v1/submit-poa", 520, 1200),
		mkSpan(9, 8, spanServe, 530, 960),
		mkSpan(10, 9, "verify.decrypt", 540, 800),
		mkSpan(11, 9, "verify.retain", 800, 950),
		mkSpan(12, 11, "wal.append", 810, 940),
		mkSpan(13, 12, spanAppend, 820, 930),
		// An op outside the window and a span of no op at all.
		mkSpan(20, 0, spanOpFlight, 2000, 3000),
		mkSpan(21, 0, "wal.append", 5000, 5100),
	}
	roots, dropped := buildTrees(spans, func(_, end int64) bool { return end <= 1000 })
	if len(roots) != 1 || dropped != 1 {
		t.Fatalf("got %d roots and %d dropped spans, want 1 and 1", len(roots), dropped)
	}
	lr := foldLayers(roots, dropped)

	var sum int64
	roots[0].walk(func(n *node) {
		sum += n.self
		if n.self < 0 {
			t.Errorf("%s: negative self time %d", n.name, n.self)
		}
		for _, c := range n.children {
			if c.lo < n.lo || c.hi > n.hi {
				t.Errorf("%s [%d,%d] exceeds its parent %s [%d,%d]", c.name, c.lo, c.hi, n.name, n.lo, n.hi)
			}
		}
	})
	if sum != 1000 || lr.opTimeNS != 1000 {
		t.Errorf("self times sum to %d over an op of %d, want 1000 and 1000", sum, lr.opTimeNS)
	}
	want := map[string]int64{
		layerGlue:              1000 - 390 - 590,
		layerTEESign:           390 - 30 - 30,
		layerFix:               60,
		layerEncrypt:           590 - 480,
		layerHTTPTransit:       (480 - 465) + (465 - 455) + (455 - 430), // call + http.client + handler, the last clipped
		layerAuditorSelf:       430 - 260 - 150,
		"sigcrypto.decrypt_ms": 260,
		"auditor.retain_ms":    (150 - 130) + (130 - 110), // the stage and its wal.append
		layerAppend:            110,
	}
	for layer, ns := range want {
		if lr.layerNS[layer] != ns {
			t.Errorf("layer %s: %d ns, want %d", layer, lr.layerNS[layer], ns)
		}
	}
	if got, share := lr.largest(); got != layerTEESign || share != 0.33 {
		t.Errorf("largest layer = %s (%.2f), want %s (0.33)", got, share, layerTEESign)
	}
}

// TestOrphanStitching: a span the program started without a propagated
// parent joins its drone's op under the innermost span open at its start.
func TestOrphanStitching(t *testing.T) {
	spans := []span{
		mkSpan(1, 0, spanOpFlight, 0, 1000),
		mkSpan(2, 1, spanSubmit, 100, 900),
		{id: 3, parent: 2, name: spanCall, start: 200, end: 800, wire: true},
		mkSpan(4, 0, "wire.submit-commit", 300, 700), // no parent: names its drone
		mkSpan(5, 4, spanServe, 310, 690),
		{id: 6, name: "wire.submit-commit", start: 300, end: 700, drone: "other"},
	}
	roots, dropped := buildTrees(spans, func(_, _ int64) bool { return true })
	if len(roots) != 1 || dropped != 1 {
		t.Fatalf("got %d roots and %d dropped spans, want 1 and 1", len(roots), dropped)
	}
	lr := foldLayers(roots, dropped)
	if got, want := lr.layerNS[layerWireTransit], int64(600-380); got != want {
		t.Errorf("wire transit = %d ns, want %d (call minus serve)", got, want)
	}
	if lr.wireCalls != 1 || lr.httpCalls != 0 {
		t.Errorf("calls: %d wire, %d http, want 1 and 0", lr.wireCalls, lr.httpCalls)
	}
}

func TestBoolArgs(t *testing.T) {
	got := strings.Join(boolArgs([]string{"--workload", "w", "--trace", "1", "--seed", "3", "-trace"}), " ")
	if want := "--workload w -trace=1 --seed 3 -trace"; got != want {
		t.Errorf("boolArgs = %q, want %q", got, want)
	}
}

// TestSpeedCorrection: a measured time is scaled by the mean speed of the
// kernel runs inside its interval, a short one by the runs within
// speedSpan around it, and one no run is near by the nearest run.
func TestSpeedCorrection(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := &speedometer{speed: []float64{0}}
	// Ten runs 100 ms apart: five at speed 1, then five at speed 0.5.
	for i := 0; i < 10; i++ {
		sp := 1.0
		if i >= 5 {
			sp = 0.5
		}
		s.at = append(s.at, t0.Add(time.Duration(i)*100*time.Millisecond))
		s.speed = append(s.speed, s.speed[i]+sp)
	}
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	for _, c := range []struct {
		name     string
		from, to time.Time
		want     float64
	}{
		{"whole record", at(0), at(900), 0.75},
		{"fast half", at(0), at(400), 1},
		{"slow half", at(500), at(900), 0.5},
		{"short op widened to the runs around it", at(440), at(460), 0.75}, // runs at 400 and 500
		{"long before the first run", at(-5000), at(-4990), 1},
		{"long after the last run", at(5000), at(5010), 0.5},
	} {
		if got := s.over(c.from, c.to); got != c.want {
			t.Errorf("%s: speed %v, want %v", c.name, got, c.want)
		}
	}
	if got := s.corrected(timed{d: 400 * time.Millisecond, end: at(900)}); got != 200*time.Millisecond {
		t.Errorf("400 ms at half speed corrected to %v, want 200ms", got)
	}
	if got := (*speedometer)(nil).corrected(timed{d: time.Second, end: at(0)}); got != time.Second {
		t.Errorf("no speedometer: %v, want the time as measured", got)
	}
	if err := s.check(at(0), at(900)); err != nil {
		t.Errorf("check refused a window with a kernel run every 100 ms: %v", err)
	}
	if err := s.check(at(2000), at(3000)); err == nil {
		t.Error("check accepted a window without a kernel run")
	}
}
