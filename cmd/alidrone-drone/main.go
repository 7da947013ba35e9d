// Command alidrone-drone simulates one AliDrone-equipped drone flying a
// scenario against a (possibly remote) auditor: it manufactures the TEE,
// registers, queries zones for the flight area, flies with the selected
// sampling mode, optionally persists the encrypted Proof-of-Alibi, and
// submits it.
//
// Usage:
//
//	alidrone-drone -auditor http://localhost:8470 -scenario residential \
//	               [-mode adaptive|fixed|batch|mac|streaming|sealed|commit] \
//	               [-disclosure full|sealed|commit] \
//	               [-fixed-rate 2] [-store ./flights] [-gps-rate 5] \
//	               [-dump-metrics] [-trace-sample 1] [-dump-traces]
//
// -disclosure selects the disclosure mode negotiated at registration.
// It defaults to the submission mode's natural disclosure (sealed/commit
// modes register as such; all other modes register full).
//
// With -dump-metrics, the drone-side counters (secure-world SMCs, sign
// latency, sampler reads/auths, HTTP client retries) are printed in the
// Prometheus text format after the mission completes.
//
// With -trace-sample > 0, the mission runs under a "drone.proof" trace
// whose identity propagates to the auditor on every HTTP call (W3C
// traceparent). -dump-traces prints the drone-side spans as JSONL after
// the mission and implies -trace-sample 1 when the rate is unset.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
	"repro/internal/operator"
	"repro/internal/poa"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
	"repro/internal/tee"
	"repro/internal/trace"
)

// options is the parsed command line.
type options struct {
	auditorURL  string
	scenario    string
	mode        operator.SamplingMode
	disclosure  string
	fixedRate   float64
	storeDir    string
	suite       string
	rotateEvery time.Duration
	gpsRate     float64
	dumpMetrics bool
	retry       operator.RetryPolicy
	wire        wireOptions
	traceSample float64
	dumpTraces  bool
}

// wireOptions carries the -wire-* flags: when addr is set, PoA
// submissions travel over the persistent binary transport with
// client-side batching instead of per-request HTTP.
type wireOptions struct {
	addr  string
	batch int
	flush time.Duration
}

// parseOptions reads the flags in args and refuses an unknown sampling
// mode, disclosure mode or signature suite before anything is built.
func parseOptions(args []string) (options, error) {
	var o options
	var mode string
	var wireFlushMS int
	fs := flag.NewFlagSet("alidrone-drone", flag.ContinueOnError)
	fs.StringVar(&o.auditorURL, "auditor", "http://localhost:8470", "auditor base URL")
	fs.StringVar(&o.scenario, "scenario", "residential", "flight scenario: airport or residential")
	fs.StringVar(&mode, "mode", "adaptive", "sampling mode: "+strings.Join(operator.ModeNames(), ", "))
	fs.StringVar(&o.disclosure, "disclosure", "", "disclosure mode announced at registration: full, sealed or commit (empty = follow -mode)")
	fs.Float64Var(&o.fixedRate, "fixed-rate", 2, "sampling rate for -mode fixed (Hz)")
	fs.StringVar(&o.storeDir, "store", "", "directory for persisted flight records (empty = do not persist)")
	fs.StringVar(&o.suite, "suite", sigcrypto.SuiteRSA1024, "TEE signature suite: rsa1024, rsa2048, rsa3072 or ed25519")
	fs.DurationVar(&o.rotateEvery, "rotate-every", 0, "rotate the TEE sign key after a flight once this much flight time has passed since the last rotation (0 disables)")
	fs.Float64Var(&o.gpsRate, "gps-rate", 5, "GPS receiver update rate in Hz (1-5)")
	fs.BoolVar(&o.dumpMetrics, "dump-metrics", false, "print drone-side metrics after the mission")
	fs.IntVar(&o.retry.Max, "retries", 3, "HTTP retries after the first attempt (429/502/503/504 and transport errors; 0 disables)")
	fs.DurationVar(&o.retry.Backoff, "retry-backoff", 500*time.Millisecond, "initial retry delay, doubling per retry; a 429's Retry-After hint overrides shorter delays")
	fs.StringVar(&o.wire.addr, "wire-addr", "", "auditor binary wire transport address, e.g. localhost:8471; submissions then use the batched binary channel instead of HTTP (empty = HTTP only)")
	fs.IntVar(&o.wire.batch, "wire-batch", 16, "submissions buffered before a wire flush (with -wire-addr)")
	fs.IntVar(&wireFlushMS, "wire-flush-ms", 2, "milliseconds before a partial wire batch is flushed anyway (with -wire-addr)")
	fs.Float64Var(&o.traceSample, "trace-sample", 0, "probability of tracing the mission (0 disables, 1 traces every proof)")
	fs.BoolVar(&o.dumpTraces, "dump-traces", false, "print drone-side trace spans as JSONL after the mission (implies -trace-sample 1 when unset)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	o.wire.flush = time.Duration(wireFlushMS) * time.Millisecond
	if o.dumpTraces && o.traceSample == 0 {
		o.traceSample = 1
	}
	var err error
	if o.mode, err = operator.ParseMode(mode); err != nil {
		return options{}, err
	}
	// The registered disclosure mode defaults to the submission mode's
	// natural one; -disclosure overrides (e.g. register sealed but fly a
	// full-mode flight to see the auditor reject it).
	if o.disclosure == "" {
		o.disclosure = o.mode.Disclosure()
	}
	if _, err := poa.NormalizeDisclosure(o.disclosure); err != nil {
		return options{}, err
	}
	if _, err := sigcrypto.SuiteByID(o.suite); err != nil {
		return options{}, err
	}
	return o, nil
}

func main() {
	o, err := parseOptions(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "alidrone-drone:", err)
		os.Exit(2)
	}
	if err := run(context.Background(), o); err != nil {
		fmt.Fprintln(os.Stderr, "alidrone-drone:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o options) error {
	start := time.Now().UTC().Truncate(time.Second)

	var sc *trace.Scenario
	var err error
	switch o.scenario {
	case "airport":
		sc, err = trace.NewAirportScenario(trace.DefaultAirportConfig(start))
	case "residential":
		sc, err = trace.NewResidentialScenario(trace.DefaultResidentialConfig(start))
	default:
		return fmt.Errorf("unknown scenario %q (want airport or residential)", o.scenario)
	}
	if err != nil {
		return err
	}

	cfg := operator.MissionConfig{FlightSpec: operator.FlightSpec{Mode: o.mode, FixedRateHz: o.fixedRate}, RotateEvery: o.rotateEvery}
	if o.storeDir != "" {
		store, err := operator.NewStore(o.storeDir)
		if err != nil {
			return err
		}
		cfg.Store = store
	}

	// Talk to the auditor and fetch its PoA-encryption key.
	httpAPI := operator.NewHTTPAuditor(o.auditorURL, nil)
	httpAPI.SetRetryPolicy(o.retry)
	var reg *obs.Registry
	if o.dumpMetrics {
		reg = obs.NewRegistry(nil)
		httpAPI.SetMetrics(reg)
	}
	var spans *otrace.RingCollector
	var tracer *otrace.Tracer
	if o.traceSample > 0 {
		spans = otrace.NewRingCollector(otrace.DefaultRingSize)
		tracer = otrace.New(otrace.Options{Sample: o.traceSample, Sink: spans})
		httpAPI.SetTracer(tracer)
	}
	// With -wire-addr, submissions ride the batched binary transport
	// (registration, zone queries and mode endpoints stay on HTTP); the
	// wire client honours the auditor's typed overload acks through the
	// same retry policy as the HTTP path honours 429/Retry-After.
	var api protocol.API = httpAPI
	if o.wire.addr != "" {
		wa := operator.NewWireAuditor(httpAPI, o.wire.addr, operator.WireClientOptions{
			BatchSize:     o.wire.batch,
			FlushInterval: o.wire.flush,
			Retry:         o.retry,
			Metrics:       reg,
		})
		defer wa.Close()
		api = wa
		fmt.Printf("submitting over binary wire transport at %s (batch=%d, flush=%v)\n",
			o.wire.addr, o.wire.batch, o.wire.flush)
	}
	auditorPub, err := httpAPI.FetchEncryptionPub()
	if err != nil {
		return fmt.Errorf("contact auditor at %s: %w", o.auditorURL, err)
	}

	// Manufacture the drone platform over the scenario route.
	platform, err := tee.NewPlatform(sc.Route, o.gpsRate, o.suite, nil)
	if err != nil {
		return err
	}
	drone, err := operator.NewDrone(api, auditorPub, platform.Device, platform.Clock,
		sigcrypto.KeySize1024, nil)
	if err != nil {
		return err
	}
	if reg != nil {
		drone.SetMetrics(reg)
	}
	if tracer != nil {
		drone.SetTracer(tracer)
	}
	if err := drone.SetDisclosure(o.disclosure); err != nil {
		return err
	}
	if err := drone.Register(); err != nil {
		return err
	}
	fmt.Printf("registered as %s (disclosure %s)\n", drone.ID(), drone.Disclosure())

	rep, err := drone.RunMission(platform.Receiver, sc.Route, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("zones in flight area: %d\n", len(rep.Zones))
	fmt.Printf("flight complete: %d PoA samples over %v (mean %.2f Hz)\n",
		rep.Run.PoA.Len(), rep.Run.Stats.Elapsed, rep.Run.Stats.MeanRateHz())
	if cfg.Store != nil {
		fmt.Printf("flight record %s persisted to %s\n", rep.FlightID, o.storeDir)
	}
	if rep.StreamedViolationAt >= 0 {
		fmt.Printf("real-time audit flagged a violation at sample %d\n", rep.StreamedViolationAt)
	}
	fmt.Printf("auditor verdict: %s", rep.Verdict.Verdict)
	if rep.Verdict.Reason != "" {
		fmt.Printf(" (%s)", rep.Verdict.Reason)
	}
	fmt.Println()
	if rep.Verdict.Challenge != nil {
		ch := rep.Verdict.Challenge
		fmt.Printf("selective-disclosure challenge %s: reveal pair at index %d\n", ch.ChallengeID, ch.PairIndex)
		final, err := drone.RevealForChallengeCtx(ctx, *ch)
		if err != nil {
			return fmt.Errorf("answer disclosure challenge: %w", err)
		}
		fmt.Printf("post-reveal verdict: %s", final.Verdict)
		if final.Reason != "" {
			fmt.Printf(" (%s)", final.Reason)
		}
		fmt.Println()
	}
	if reg != nil {
		fmt.Println("--- drone metrics ---")
		if err := reg.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if o.dumpTraces && spans != nil {
		fmt.Println("--- drone trace spans (JSONL) ---")
		if err := otrace.WriteJSONL(os.Stdout, spans.Snapshot()); err != nil {
			return err
		}
	}
	return nil
}
