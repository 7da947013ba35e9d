// Command alidrone-auditor runs the AliDrone Server: the authorized third
// party that registers drones and no-fly zones, answers zone queries and
// verifies submitted Proofs-of-Alibi over HTTP.
//
// Usage:
//
//	alidrone-auditor -listen :8470 [-retention 48h] [-mode exact|conservative]
//	                 [-state-dir /var/lib/alidrone] [-compact-every 4096] [-save-every 1m]
//	                 [-metrics=false] [-workers 0] [-nonce-ttl 1h] [-shards 1]
//	                 [-node-id a -peers b=host:port -advertise host:port]
//
// Every auditor is an auditor.Router over -shards local shard Servers;
// without -node-id it is a standalone node that serves no cluster doors.
//
// With -state-dir, each shard persists through the write-ahead-log
// storage engine in <dir>/shard-<i>: every committed mutation is durable
// (fsynced) before the request returns, and restart recovery replays the
// WAL tail over the latest compacted snapshot — the same typed records in
// the same checksummed framing, so the log, the snapshot and a cluster
// handoff share one schema and one decoder (see DESIGN.md "Durability
// architecture"). Without -state-dir the shards live in memory. A
// -state-dir holding WAL or snapshot files at its root (a layout from
// before shard directories) is refused until they move into shard-0/.
// -save-every is the interval of the retention sweep.
//
// On SIGINT or SIGTERM the auditor drains: it stops accepting requests,
// lets in-flight ones finish, stops housekeeping, writes a final
// snapshot and closes its stores.
//
// Unless -metrics=false, the server exposes Prometheus-style counters on
// GET /metrics, a liveness probe on GET /healthz and a readiness probe
// on GET /readyz (see the README "Observability" section for the metric
// names). -slo-window sets the sliding window behind the SLO summary
// (per-door verdict latency quantiles and shed rate); in cluster mode
// any node additionally serves the fleet-merged exposition on GET
// /cluster/metrics and the fleet status snapshot on GET /cluster/status
// (pretty-printed by the alidrone-status command).
//
// Cluster mode: -node-id turns the binary into one node of a sharded
// auditor cluster. -peers lists seed nodes as
// id=host:port[+wirehost:port], and -advertise is the address peers and
// clients reach this node at. Mis-routed submissions are
// forwarded to the owning node exactly once (see DESIGN.md "Sharded
// cluster").
//
// Tracing: every request continues the submitter's trace when it carries
// a W3C traceparent header; -trace-sample additionally samples traces
// that start at the auditor. Finished spans land in an in-memory ring
// buffer (-trace-buffer spans) served as JSONL on GET /debug/traces.
// Requests slower than -slow-ms are logged with their trace ID.
// -debug-addr serves /debug/traces and /debug/pprof/* on a separate
// listener for operational debugging.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/auditor"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/olog"
	otrace "repro/internal/obs/trace"
	"repro/internal/poa"
	"repro/internal/sigcrypto"
)

// options collects the CLI configuration run() executes.
type options struct {
	listen       string
	wireAddr     string
	retention    time.Duration
	mode         string
	stateDir     string // WAL + snapshot storage engine directory
	saveEvery    time.Duration
	compactEvery int
	metrics      bool
	sloWindow    time.Duration
	workers      int
	maxInflight  int
	queueDepth   int
	nonceTTL     time.Duration
	suites       string
	rotationWin  time.Duration
	traceSample  float64
	traceBuffer  int
	debugAddr    string
	slowMS       int

	// Cluster mode (enabled by -node-id; -shards applies to any node).
	nodeID    string
	peers     string
	shards    int
	advertise string
}

func main() {
	var o options
	flag.StringVar(&o.listen, "listen", ":8470", "address to serve the auditor API on")
	flag.StringVar(&o.wireAddr, "wire-addr", "", "address to serve the binary wire transport on, e.g. :8471 (empty = disabled)")
	flag.DurationVar(&o.retention, "retention", 48*time.Hour, "how long verified PoAs are kept for accusations")
	flag.StringVar(&o.mode, "mode", "exact", "sufficiency test: exact or conservative")
	flag.StringVar(&o.stateDir, "state-dir", "", "storage-engine directory: WAL + snapshot persistence under <dir>/shard-<i> (empty = in memory)")
	flag.IntVar(&o.compactEvery, "compact-every", 0, "WAL records between snapshot compactions (0 = default, negative = never)")
	flag.DurationVar(&o.saveEvery, "save-every", time.Minute, "retention sweep interval")
	flag.BoolVar(&o.metrics, "metrics", true, "serve GET /metrics and per-stage instrumentation")
	flag.DurationVar(&o.sloWindow, "slo-window", 5*time.Minute, "sliding window for the SLO latency/shed summary (0 = disabled; requires -metrics)")
	flag.IntVar(&o.workers, "workers", 0, "verification worker pool size (0 = GOMAXPROCS, 1 = sequential pipeline)")
	flag.IntVar(&o.maxInflight, "max-inflight", 0, "verification requests admitted concurrently before queueing/shedding (0 = 4 per worker, negative = no admission control)")
	flag.IntVar(&o.queueDepth, "queue-depth", 0, "per-drone fairness queue for requests over the in-flight budget (0 = default 16, negative = shed immediately)")
	flag.DurationVar(&o.nonceTTL, "nonce-ttl", auditor.DefaultNonceTTL, "how long zone-query nonces are remembered for replay rejection")
	flag.StringVar(&o.suites, "suite", "", "comma-separated signature suites drones may register with, e.g. rsa2048,ed25519 (empty = all registered suites)")
	flag.DurationVar(&o.rotationWin, "rotation-window", 0, "how long a retired TEE key epoch keeps verifying PoAs after rotation (0 = default 15m, negative = reject immediately)")
	flag.Float64Var(&o.traceSample, "trace-sample", 0, "probability of tracing a request that arrives without a traceparent (submitter-sampled traces are always honoured)")
	flag.IntVar(&o.traceBuffer, "trace-buffer", otrace.DefaultRingSize, "finished spans kept in the in-memory ring served at /debug/traces")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "separate listener for /debug/traces and /debug/pprof/* (empty = disabled)")
	flag.IntVar(&o.slowMS, "slow-ms", 0, "log requests slower than this many milliseconds with their trace ID (0 = disabled)")
	flag.StringVar(&o.nodeID, "node-id", "", "cluster node identity; enables cluster mode (empty = a standalone node with no cluster doors)")
	flag.StringVar(&o.peers, "peers", "", "comma-separated seed peers, id=host:port[+wirehost:port] (requires -node-id)")
	flag.IntVar(&o.shards, "shards", 1, "local shard Servers per node")
	flag.StringVar(&o.advertise, "advertise", "", "address peers and clients reach this node at (default: -listen)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, o)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "alidrone-auditor:", err)
		os.Exit(1)
	}
}

// run serves the auditor until ctx is cancelled, then drains and
// checkpoints it.
func run(ctx context.Context, o options) error {
	var testMode poa.TestMode
	switch o.mode {
	case "exact":
		testMode = poa.Exact
	case "conservative":
		testMode = poa.Conservative
	default:
		return fmt.Errorf("unknown mode %q (want exact or conservative)", o.mode)
	}

	// Admission budget: -max-inflight 0 scales from the worker pool so an
	// untuned deployment sheds before it thrashes; negative disables the
	// controller entirely.
	maxInflight := o.maxInflight
	if maxInflight == 0 {
		workers := o.workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		maxInflight = auditor.DefaultInflightPerWorker * workers
	}
	if maxInflight < 0 {
		maxInflight = 0
	}

	var allowedSuites []string
	if o.suites != "" {
		for _, s := range strings.Split(o.suites, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			if _, err := sigcrypto.SuiteByID(s); err != nil {
				return fmt.Errorf("-suite %q: %w (registered: %v)", s, err, sigcrypto.Suites())
			}
			allowedSuites = append(allowedSuites, s)
		}
	}

	logger := olog.New(os.Stderr, olog.LevelInfo, nil)
	cfg := auditor.Config{
		Mode:           testMode,
		Retention:      o.retention,
		Workers:        o.workers,
		NonceTTL:       o.nonceTTL,
		CompactEvery:   o.compactEvery,
		MaxInflight:    maxInflight,
		QueueDepth:     o.queueDepth,
		RotationWindow: o.rotationWin,
		AllowedSuites:  allowedSuites,
		Logger:         logger,
	}
	if o.metrics {
		cfg.Metrics = obs.NewRegistry(nil)
		cfg.Metrics.AddCollector(obs.CollectRuntime)
		if o.sloWindow > 0 {
			// One tracker for the whole process: the router hands the same
			// instance to every shard, so the SLO summary (and its
			// /metrics gauges) covers the node, not one shard.
			cfg.SLO = obs.NewSLO(obs.SLOOptions{Window: o.sloWindow})
			cfg.SLO.Register(cfg.Metrics, auditor.MetricSLOPrefix)
		}
	}
	collector := otrace.NewRingCollector(o.traceBuffer)
	cfg.Tracer = otrace.New(otrace.Options{Sample: o.traceSample, Sink: collector})

	// One front end for one node or many: a Router over -shards local
	// shard Servers. Without -node-id it is a standalone node — no peers,
	// no cluster-internal doors; with it, one node of a sharded cluster
	// that owns routing, gossip and handoff. In cluster mode every log
	// line this process emits names its node, so interleaved fleet logs
	// stay attributable.
	hlogger := logger
	if o.nodeID != "" {
		hlogger = logger.With("node", o.nodeID)
	}
	seeds, err := cluster.ParsePeers(o.peers)
	if err != nil {
		return fmt.Errorf("-peers: %w", err)
	}
	advertise := o.advertise
	if advertise == "" {
		advertise = o.listen
	}
	router, err := auditor.NewRouter(auditor.RouterConfig{
		Self:     cluster.Node{ID: o.nodeID, Addr: advertise, WireAddr: o.wireAddr},
		Seeds:    seeds,
		Shards:   o.shards,
		StateDir: o.stateDir,
		Server:   cfg,
		Logger:   logger,
	})
	if err != nil {
		return err
	}

	// Shutdown drains in the reverse order of the defers below: stop
	// taking HTTP requests (letting in-flight ones finish), close the wire
	// and debug listeners, stop the sweepers and gossip, then write a
	// final snapshot and close the stores — so no late request ever
	// reaches a closed WAL.
	defer func() {
		if err := router.Checkpoint(); err != nil {
			log.Printf("final checkpoint failed: %v", err)
		}
		if err := router.Close(); err != nil {
			log.Printf("store close failed: %v", err)
		}
	}()

	// Housekeeping: purge expired state on every local shard, and run the
	// membership gossip loop that keeps the cluster map converged (with
	// one node it has nobody to talk to). The purge is WAL-logged and
	// compaction is automatic, so the sweepers only sweep.
	bgCtx, cancelBG := context.WithCancel(context.Background())
	var bg sync.WaitGroup
	defer func() {
		cancelBG()
		bg.Wait()
	}()
	for i := 0; i < router.NumShards(); i++ {
		sweeper := &auditor.Sweeper{Server: router.Shard(i), Interval: o.saveEvery, Logf: log.Printf}
		bg.Add(1)
		go func() {
			defer bg.Done()
			sweeper.Run(bgCtx)
		}()
	}
	bg.Add(1)
	go func() {
		defer bg.Done()
		router.Run(bgCtx)
	}()

	// The binary wire transport serves the same verification pipeline on
	// its own listener: persistent connections, batched submissions,
	// coalesced acks (see DESIGN.md "Wire protocol & transport").
	if o.wireAddr != "" {
		lis, err := net.Listen("tcp", o.wireAddr)
		if err != nil {
			return fmt.Errorf("wire listener: %w", err)
		}
		wireSrv := auditor.NewWireServer(router, auditor.WireOptions{Logger: hlogger})
		defer wireSrv.Close()
		go func() {
			if err := wireSrv.Serve(lis); err != nil {
				log.Printf("wire listener failed: %v", err)
			}
		}()
		log.Printf("binary wire transport on %s", lis.Addr())
	}

	if o.debugAddr != "" {
		lis, err := net.Listen("tcp", o.debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		debugSrv := &http.Server{Handler: debugMux(collector)}
		defer debugSrv.Close()
		go func() {
			if err := debugSrv.Serve(lis); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener failed: %v", err)
			}
		}()
		log.Printf("debug endpoints on %s (/debug/traces, /debug/pprof/)", lis.Addr())
	}

	lis, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: auditor.NewHandlerOpts(router, auditor.HandlerOptions{
		Collector: collector,
		Logger:    hlogger,
		Slow:      time.Duration(o.slowMS) * time.Millisecond,
	})}
	defer func() {
		drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			log.Printf("http drain: %v", err)
			_ = httpSrv.Close()
		}
	}()
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(lis) }()

	log.Printf("alidrone-auditor listening on %s (node=%q, shards=%d, peers=%q, mode=%s, retention=%v, state-dir=%q, workers=%d, max-inflight=%d)",
		lis.Addr(), o.nodeID, router.NumShards(), o.peers, o.mode, o.retention, o.stateDir,
		router.Shard(0).Workers(), router.Shard(0).MaxInflight())
	select {
	case <-ctx.Done():
		return nil
	case err := <-served:
		return err
	}
}

// drainTimeout bounds how long shutdown waits for in-flight HTTP requests
// before closing their connections.
const drainTimeout = 10 * time.Second

// debugMux assembles the -debug-addr surface: the trace ring dump and
// the pprof profiling handlers, registered explicitly so they stay off
// the protocol listener.
func debugMux(collector *otrace.RingCollector) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle(auditor.PathDebugTraces, collector)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
