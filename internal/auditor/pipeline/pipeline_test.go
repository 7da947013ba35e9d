package pipeline

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/protocol"
)

func pass(name string) Stage {
	return Stage{Name: name, Run: func(context.Context, *Submission) error { return nil }}
}

func TestRunnerClassifiesOutcomes(t *testing.T) {
	boom := errors.New("boom")
	tests := []struct {
		name    string
		stage   Stage
		verdict protocol.Verdict
		reason  string
		pairs   int
		err     error
	}{
		{"all pass", pass("x"), protocol.VerdictCompliant, "", 0, nil},
		{"violation is a verdict", Stage{Name: "x", Run: func(context.Context, *Submission) error {
			return &Violation{Reason: "bad trace", InsufficientPairs: 3}
		}}, protocol.VerdictViolation, "bad trace", 3, nil},
		{"internal error withholds the verdict", Stage{Name: "x", Run: func(context.Context, *Submission) error {
			return boom
		}}, "", "", 0, boom},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var r Runner
			resp, err := r.Run(context.Background(), &Submission{}, []Stage{tt.stage})
			if !errors.Is(err, tt.err) {
				t.Fatalf("err = %v, want %v", err, tt.err)
			}
			if resp.Verdict != tt.verdict || resp.Reason != tt.reason || resp.InsufficientPairs != tt.pairs {
				t.Errorf("resp = %+v", resp)
			}
		})
	}
}

func TestRunnerStopsAtFirstFailure(t *testing.T) {
	var ran []string
	record := func(name string, err error) Stage {
		return Stage{Name: name, Run: func(context.Context, *Submission) error {
			ran = append(ran, name)
			return err
		}}
	}
	var r Runner
	resp, err := r.Run(context.Background(), &Submission{}, []Stage{
		record("first", nil),
		record("second", &Violation{Reason: "stop here"}),
		record("third", nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictViolation {
		t.Errorf("verdict = %v", resp.Verdict)
	}
	if strings.Join(ran, ",") != "first,second" {
		t.Errorf("ran = %v, want first,second", ran)
	}
}

func TestRunnerInstrumentsStages(t *testing.T) {
	reg := obs.NewRegistry(nil)
	r := Runner{
		Metrics:            reg,
		MetricStageSeconds: "stage_seconds",
		MetricStageTotal:   "stage_total",
	}
	var hooks []string
	r.OnStage = func(_ context.Context, stage string, _ *Submission) { hooks = append(hooks, stage) }

	stages := []Stage{pass("sig"), {Name: "suff", Run: func(context.Context, *Submission) error {
		return &Violation{Reason: "no"}
	}}}
	if _, err := r.Run(context.Background(), &Submission{}, stages); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`stage_total{result="pass",stage="sig"} 1`,
		`stage_total{result="fail",stage="suff"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	if strings.Join(hooks, ",") != "sig,suff" {
		t.Errorf("OnStage hooks = %v", hooks)
	}
}
