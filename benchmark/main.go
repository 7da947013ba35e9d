// Command benchmark is the repository's performance benchmark: four
// closed-loop flight workloads driven through the real client, loopback
// TCP and the real auditor on a file store with fsync on. One command
// prints every end-to-end metric by name and checks the outputs; -trace
// repeats the workload with spans at every layer boundary and prints the
// per-layer report. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const (
	defaultSeconds = 20 // measured window; BENCHMARK.json run_seconds
	zoneProbeReps  = 20
	maxSetups      = 12 // per untraced run, however cheap a set-up is

	// pinnedEnv marks a process that already runs on its one CPU (see
	// pinToOneCPU) and names that CPU.
	pinnedEnv = "ALIDRONE_BENCH_CPU"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	repeat   int
	out      string

	// Fixed outside tests: the same on every commit. An untraced run sets
	// up at least setups times and goes on, up to maxSetups, until
	// setupBudget has gone by; setup_s is the median.
	warmup      time.Duration
	setups      int
	setupBudget time.Duration
}

func main() {
	o := options{warmup: 2 * time.Second, setups: 3, setupBudget: 6 * time.Second}
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all four, one child process each)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: fixes every generated input")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured window in seconds (a traced run halves it between its untraced reference and its traced window)")
	fs.BoolVar(&o.trace, "trace", false, "traced run: print the per-layer metrics and write span JSONL")
	fs.IntVar(&o.repeat, "repeat", 1, "run this many sets and print per-metric min/median/max and spread against the bound")
	fs.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for result JSON, span JSONL and scratch state")
	_ = fs.Parse(boolArgs(os.Args[1:])) // ExitOnError
	err := pinToOneCPU()
	if err != nil {
		// Measure anyway: the stamp says the run was not pinned.
		fmt.Fprintln(os.Stderr, "benchmark: not pinned to one CPU:", err)
	}
	if o.workload != "" {
		err = runOne(o, os.Stdout)
	} else {
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// boolArgs lets "-trace 1" and "-trace 0" (the driver's form) mean what
// "-trace=1" and "-trace=0" mean, while a bare "-trace" stays a switch.
func boolArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if a := strings.TrimLeft(args[i], "-"); a == "trace" && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// outcome is one workload run: the contract's result line plus what the
// human report and the stamped result file add.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	Workload     string   `json:"workload"`
	Traced       bool     `json:"traced"`
	LargestLayer string   `json:"largestLayer,omitempty"`
	LargestShare float64  `json:"largestShare,omitempty"`
	SpanFile     string   `json:"spanFile,omitempty"`
	RecoverLost  int      `json:"recoverLostFlights,omitempty"`
	Problems     []string `json:"problems,omitempty"`
	Stamp        stamp    `json:"stamp"`
}

// stamp says what produced a result file.
type stamp struct {
	Commit     string  `json:"commit"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`     // CPUs this process may run on: 1 when pinned
	PinnedCPU  string  `json:"pinnedCpu"` // "" when not pinned
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	Seed       int64   `json:"seed"`
	Clients    int     `json:"clients"`
	WarmupS    float64 `json:"warmupSeconds"`
	WindowS    float64 `json:"windowSeconds"`
	CPUSpeed   float64 `json:"cpuSpeed"` // mean over the window, 1 = reference (speed.go)
	Time       string  `json:"time"`
}

func newStamp(o options, t tally) stamp {
	return stamp{
		Commit: gitCommit(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: cpuModel(),
		NProc: runtime.NumCPU(), PinnedCPU: os.Getenv(pinnedEnv), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: o.seed, Clients: clients, WarmupS: o.warmup.Seconds(), WindowS: t.seconds, CPUSpeed: t.speed,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit reads the checked-out commit from .git without running git;
// a checkout that is not a repository reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	return ref
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func knownWorkload(name string) bool {
	for _, w := range workloadWhy {
		if w[0] == name {
			return true
		}
	}
	return false
}

// runOne runs one workload in this process, prints its report and, as the
// last line, the result object the driver reads. A failed correctness
// check is reported and then returned as an error.
func runOne(o options, stdout io.Writer) error {
	if !knownWorkload(o.workload) {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 0.2 {
		return fmt.Errorf("-seconds %v is too short to measure", o.seconds)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	meter, err := startSpeedometer()
	if err != nil {
		return err
	}
	var res outcome
	if o.trace {
		res, err = runTraced(o, meter)
	} else {
		res, err = runUntraced(o, meter)
	}
	if err = errors.Join(err, meter.close()); err != nil {
		return err
	}

	mode, defs := "end-to-end", append(append([]metricDef(nil), endToEnd...), unbounded...)
	if o.trace {
		mode, defs = "per-layer (traced)", perLayer
	}
	printTable(stdout, fmt.Sprintf("== %s  seed %d  %s  window %.1fs  clients %d  cpu speed %.3f of reference",
		o.workload, o.seed, mode, res.Stamp.WindowS, res.Stamp.Clients, res.Stamp.CPUSpeed), defs, res.Metrics, !o.trace)
	if o.trace {
		fmt.Fprintf(stdout, "  largest self-time layer: %s (%.1f%% of traced op time); spans: %s\n",
			res.LargestLayer, 100*res.LargestShare, res.SpanFile)
	}
	if res.RecoverLost > 0 {
		fmt.Fprintf(stdout, "  KNOWN DEFECT: restart lost %d acknowledged flight(s) (concurrent-commit replay; see README)\n", res.RecoverLost)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(stdout, "  PROBLEM: %s\n", p)
	}

	name := fmt.Sprintf("result-%s-seed%d", o.workload, o.seed)
	if o.trace {
		name += "-traced"
	}
	full, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, name+".json"), append(full, '\n'), 0o644); err != nil {
		return err
	}

	// The driver's line: exactly these keys, and per metric exactly value
	// and unit, for exactly the section BENCHMARK.json lists for this mode.
	type wireValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	contract := endToEnd
	if o.trace {
		contract = perLayer
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]wireValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]wireValue)}
	for _, def := range contract {
		line.Metrics[def.Name] = wireValue{res.Metrics[def.Name].Value, def.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		return fmt.Errorf("%s: correctness gate failed: %s", o.workload, strings.Join(res.Problems, "; "))
	}
	return nil
}

// measured is one driven environment, closed and checked.
type measured struct {
	win      window
	tally    tally // times at reference speed
	raw      tally // times as measured
	problems []string
	extras   layerExtras
	spans    []span
}

// measure drives one set-up environment through warm-up and window, then
// runs the correctness gate: replay probe, live retention count, close,
// recovery. It always tears the environment down.
func measure(e *env, meter *speedometer, warmup, window time.Duration) (m measured, err error) {
	torn := false
	defer func() {
		if !torn {
			err = errors.Join(err, e.tearDown())
		}
		err = errors.Join(err, os.RemoveAll(e.dir))
	}()
	if m.win, err = e.drive(warmup, window); err != nil {
		return m, err
	}
	if err := meter.check(m.win.from.at, m.win.to.at); err != nil {
		return m, err
	}
	stream := workloadMode(e.plan.Workload) == modeStream
	m.tally, m.raw = m.win.tally(stream, meter), m.win.tally(stream, nil)
	if m.win.firstErr != nil {
		m.problems = append(m.problems, m.win.firstErr.Error())
	}
	if m.tally.flights == 0 {
		return m, fmt.Errorf("no flight completed inside the window (first error: %v)", m.win.firstErr)
	}
	if m.extras.rssMB, err = peakRSSMB(); err != nil {
		return m, err
	}
	if e.tap != nil {
		rects := e.plan.probeRects()
		t0, zones := time.Now(), 0
		for rep := 0; rep < zoneProbeReps; rep++ {
			for _, r := range rects {
				zones += e.aud.queryRectDirect(r)
			}
		}
		probes := float64(zoneProbeReps * len(rects))
		m.extras.zoneQueryMS = ms(meter.corrected(timed{time.Since(t0), time.Now()})) / probes
		m.extras.zonesPerQuery = float64(zones) / probes
	}
	if err := e.replayProbe(); err != nil {
		m.problems = append(m.problems, err.Error())
	}
	acked := m.win.allAcked
	if got, want := retained(e.aud.srv), e.preloaded+acked; got != want {
		m.problems = append(m.problems, fmt.Sprintf("live server retains %d flights, %d were acknowledged", got, want))
	}
	if e.tap != nil {
		final, err := e.tap.counters()
		if err != nil {
			return m, err
		}
		m.extras.totalAppends = final[famAppends]
		m.spans = e.tap.sink.spans
	}
	torn = true
	if err := e.tearDown(); err != nil {
		return m, err
	}
	reopened, took, lost, err := e.recoveryCheck(acked)
	if err != nil {
		m.problems = append(m.problems, err.Error())
	}
	m.extras.recoverMS, m.extras.recoverLost = ms(meter.corrected(timed{took, reopened})), lost
	return m, nil
}

func runUntraced(o options, meter *speedometer) (outcome, error) {
	p := newPlan(o.workload, o.seed, clients)
	// Set up several times and keep the last: setup_s is the median, so
	// one slow RSA prime search does not decide it. Cheap set-ups (the
	// street workloads') repeat more often than the city's.
	var e *env
	var setups, rawSetups []float64
	for began := time.Now(); len(setups) < o.setups || (time.Since(began) < o.setupBudget && len(setups) < maxSetups); {
		if e != nil {
			if err := errors.Join(e.tearDown(), os.RemoveAll(e.dir)); err != nil {
				return outcome{}, err
			}
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(p, stateDir(o.out, o.workload, len(setups)), nil); err != nil {
			return outcome{}, fmt.Errorf("set-up: %w", err)
		}
		took := timed{time.Since(t0), time.Now()}
		setups, rawSetups = append(setups, meter.corrected(took).Seconds()), append(rawSetups, took.d.Seconds())
	}
	m, err := measure(e, meter, o.warmup, time.Duration(o.seconds*float64(time.Second)))
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		Correct: m.tally.failed == 0 && len(m.problems) == 0, Attempted: m.tally.attempted, Failed: m.tally.failed,
		Metrics:  endToEndMetrics(m.win, m.tally, m.raw, median(setups), median(rawSetups), m.extras.rssMB, len(setups)),
		Workload: o.workload, RecoverLost: m.extras.recoverLost, Problems: m.problems, Stamp: newStamp(o, m.tally),
	}, nil
}

// runTraced halves the window: first an untraced reference (no wrapper,
// no tracer), then the same workload with every tap in place. The
// difference in flights per second is what observability costs.
func runTraced(o options, meter *speedometer) (outcome, error) {
	p := newPlan(o.workload, o.seed, clients)
	half := time.Duration(o.seconds * float64(time.Second) / 2)
	e, err := setUp(p, stateDir(o.out, o.workload, 0), nil)
	if err != nil {
		return outcome{}, fmt.Errorf("set-up: %w", err)
	}
	ref, err := measure(e, meter, o.warmup, half)
	if err != nil {
		return outcome{}, err
	}
	if e, err = setUp(p, stateDir(o.out, o.workload, 1), newTap()); err != nil {
		return outcome{}, fmt.Errorf("set-up: %w", err)
	}
	m, err := measure(e, meter, o.warmup, half)
	if err != nil {
		return outcome{}, err
	}
	from, to := m.win.from.at.UnixNano(), m.win.to.at.UnixNano()
	roots, dropped := buildTrees(m.spans, func(_, end int64) bool { return end > from && end <= to })
	lr := foldLayers(roots, dropped)
	spanFile := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeSpans(spanFile, roots); err != nil {
		return outcome{}, err
	}
	m.extras.untracedFPS = float64(ref.tally.flights) / (ref.tally.seconds * ref.tally.speed)
	m.extras.recoverLost += ref.extras.recoverLost
	problems := append(ref.problems, m.problems...)
	largest, share := lr.largest()
	return outcome{
		Correct:   ref.tally.failed+m.tally.failed == 0 && len(problems) == 0,
		Attempted: m.tally.attempted, Failed: m.tally.failed,
		Metrics:  perLayerMetrics(m.win, m.tally, lr, m.extras),
		Workload: o.workload, Traced: true, LargestLayer: largest, LargestShare: share, SpanFile: spanFile,
		RecoverLost: m.extras.recoverLost, Problems: problems, Stamp: newStamp(o, m.tally),
	}, nil
}

// runAll runs every workload in a child process of its own, so RSS, CPU
// and GC state do not leak from one workload into the next, and with
// -repeat prints how far the sets agree.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds, err := loadBounds()
	if err != nil {
		return err
	}
	series := make(map[string]map[string][]float64) // workload → metric → one value per set
	var failed []string
	for set := 0; set < max(o.repeat, 1); set++ {
		for _, w := range workloadWhy {
			args := []string{"-workload", w[0], "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				fmt.Sprintf("-trace=%t", o.trace), "-out", o.out}
			var stdout bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
			if runErr != nil {
				failed = append(failed, w[0])
				continue
			}
			var res outcome
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s: result line: %w", w[0], err)
			}
			if series[w[0]] == nil {
				series[w[0]] = make(map[string][]float64)
			}
			for name, v := range res.Metrics {
				series[w[0]][name] = append(series[w[0]][name], v.Value)
			}
		}
	}
	if o.repeat > 1 && !o.trace {
		out := bufio.NewWriter(os.Stdout)
		for _, w := range workloadWhy {
			fmt.Fprintf(out, "== %s  %d sets  seed %d\n", w[0], o.repeat, o.seed)
			for _, def := range endToEnd {
				if xs := series[w[0]][def.Name]; len(xs) > 0 {
					fmt.Fprintln(out, spreadLine(def.Name, xs, bounds[def.Name]))
				}
			}
		}
		if err := out.Flush(); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed workloads: %s", strings.Join(failed, ", "))
	}
	return nil
}

// loadBounds reads each end-to-end metric's bound from BENCHMARK.json in
// the working directory (the repository root).
func loadBounds() (map[string]float64, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
