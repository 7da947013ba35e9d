package olog

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
)

var testStart = time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)

func testLogger(min Level) (*Logger, *bytes.Buffer) {
	var buf bytes.Buffer
	return New(&buf, min, obs.NewFakeClock(testStart)), &buf
}

func TestLineShape(t *testing.T) {
	l, buf := testLogger(LevelInfo)
	l.Info(context.Background(), "hello world", "path", "/v1/submit-poa", "ms", 12)
	want := `ts=2018-06-01T15:00:00Z level=info msg="hello world" path=/v1/submit-poa ms=12` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("line = %q, want %q", got, want)
	}
}

func TestLevelFiltering(t *testing.T) {
	l, buf := testLogger(LevelWarn)
	ctx := context.Background()
	l.Debug(ctx, "d")
	l.Info(ctx, "i")
	if buf.Len() != 0 {
		t.Fatalf("below-min levels wrote %q", buf.String())
	}
	l.Warn(ctx, "w")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "level=warn") {
		t.Errorf("lines = %q", lines)
	}
	if !l.Enabled(LevelWarn) || l.Enabled(LevelInfo) {
		t.Error("Enabled disagrees with the minimum level")
	}
}

func TestTraceStamp(t *testing.T) {
	l, buf := testLogger(LevelInfo)
	tr := otrace.New(otrace.Options{Sample: 1})
	ctx, sp := tr.StartSpan(context.Background(), "op")
	l.Info(ctx, "traced")
	line := buf.String()
	sc := sp.Context()
	if !strings.Contains(line, " trace="+sc.TraceID.String()) ||
		!strings.Contains(line, " span="+sc.SpanID.String()) {
		t.Errorf("line %q missing trace/span stamp for %+v", line, sc)
	}

	buf.Reset()
	l.Info(context.Background(), "untraced")
	if strings.Contains(buf.String(), "trace=") {
		t.Errorf("untraced line carries a stamp: %q", buf.String())
	}
}

func TestWith(t *testing.T) {
	l, buf := testLogger(LevelInfo)
	l.With("component", "auditor").Info(context.Background(), "up", "port", 8470)
	if got := buf.String(); !strings.Contains(got, " component=auditor port=8470") {
		t.Errorf("line = %q", got)
	}
}

func TestQuoting(t *testing.T) {
	l, buf := testLogger(LevelInfo)
	l.Info(context.Background(), "m", "empty", "", "eq", "a=b", "plain", "ok")
	want := ` empty="" eq="a=b" plain=ok`
	if got := buf.String(); !strings.Contains(got, want) {
		t.Errorf("line = %q, want it to contain %q", got, want)
	}
	// A trailing key without a value still logs.
	buf.Reset()
	l.Info(context.Background(), "m", "orphan")
	if !strings.Contains(buf.String(), ` orphan=""`) {
		t.Errorf("orphan key line = %q", buf.String())
	}
}

func TestNilLogger(t *testing.T) {
	var l *Logger
	ctx := context.Background()
	// Must not panic, including through With.
	l.Info(ctx, "x")
	l.With("k", "v").Warn(ctx, "y")
	if l.Enabled(LevelWarn) {
		t.Error("nil logger reports enabled")
	}
}

func TestConcurrentLines(t *testing.T) {
	l, buf := testLogger(LevelInfo)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Info(context.Background(), "concurrent", "j", j)
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 800 {
		t.Fatalf("got %d lines, want 800", len(lines))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "ts=") || !strings.Contains(line, "msg=concurrent") {
			t.Fatalf("interleaved line: %q", line)
		}
	}
}
