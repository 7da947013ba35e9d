// Command alidrone-auditor runs the AliDrone Server: the authorized third
// party that registers drones and no-fly zones, answers zone queries and
// verifies submitted Proofs-of-Alibi over HTTP.
//
// Usage:
//
//	alidrone-auditor -listen :8470 [-retention 48h] [-mode exact|conservative]
//	                 [-state-dir /var/lib/alidrone] [-compact-every 4096] [-fsync=true]
//	                 [-state /var/lib/alidrone/state.rec] [-save-every 1m]
//	                 [-metrics=false] [-workers 0] [-nonce-ttl 1h]
//
// With -state-dir, the server persists through the write-ahead-log
// storage engine: every committed mutation is durable before the request
// returns, and restart recovery replays the WAL tail over the latest
// compacted snapshot — the same typed records in the same checksummed
// framing, so the log, the snapshot and a cluster handoff share one
// schema and one decoder (see DESIGN.md "Durability architecture"). If
// the directory is empty and a -state file exists, the file is migrated
// into the engine on first start.
//
// With only -state, the server runs in the legacy whole-file mode:
// restore at startup, write the snapshot stream to the file periodically
// and on shutdown. Mutations between checkpoints are lost on a crash.
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
// auditor cluster. -shards sets the local shard count (each shard is a
// full Server with its own WAL directory under -state-dir/shard-<i>),
// -peers lists seed nodes as id=host:port[+wirehost:port], and
// -advertise is the address peers and routing clients reach this node
// at. Mis-routed submissions are forwarded to the owning node exactly
// once (see DESIGN.md "Sharded cluster").
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
	"repro/internal/storage"
)

// options collects the CLI configuration run() executes.
type options struct {
	listen       string
	wireAddr     string
	retention    time.Duration
	mode         string
	statePath    string // legacy monolithic state file
	stateDir     string // WAL + snapshot storage engine directory
	saveEvery    time.Duration
	compactEvery int
	fsync        bool
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

	// Cluster mode (enabled by -node-id).
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
	flag.StringVar(&o.stateDir, "state-dir", "", "storage-engine directory: WAL + snapshot persistence (empty = no engine)")
	flag.IntVar(&o.compactEvery, "compact-every", 0, "WAL records between snapshot compactions (0 = default, negative = never)")
	flag.BoolVar(&o.fsync, "fsync", true, "fsync the WAL on every commit (-fsync=false trades durability for throughput)")
	flag.StringVar(&o.statePath, "state", "", "legacy state file; with -state-dir it is the migration source")
	flag.DurationVar(&o.saveEvery, "save-every", time.Minute, "retention sweep interval (and checkpoint interval in legacy -state mode)")
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
	flag.StringVar(&o.nodeID, "node-id", "", "cluster node identity; enables cluster mode (one Server = one shard behind a router)")
	flag.StringVar(&o.peers, "peers", "", "comma-separated seed peers, id=host:port[+wirehost:port] (cluster mode)")
	flag.IntVar(&o.shards, "shards", 1, "local shard Servers per node (cluster mode)")
	flag.StringVar(&o.advertise, "advertise", "", "address peers and routing clients reach this node at (default: -listen)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "alidrone-auditor:", err)
		os.Exit(1)
	}
}

func run(o options) error {
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
			// One tracker for the whole process: in cluster mode the router
			// hands the same instance to every shard, so the SLO summary
			// (and its /metrics gauges) covers the node, not one shard.
			cfg.SLO = obs.NewSLO(obs.SLOOptions{Window: o.sloWindow})
			cfg.SLO.Register(cfg.Metrics, auditor.MetricSLOPrefix)
		}
	}
	collector := otrace.NewRingCollector(o.traceBuffer)
	cfg.Tracer = otrace.New(otrace.Options{Sample: o.traceSample, Sink: collector})

	// Backend selection: with -node-id the binary is one cluster node —
	// N shard Servers behind a Router that owns routing, gossip and
	// handoff. Without it, the classic single-Server auditor.
	var (
		backend auditor.Backend
		srv     *auditor.Server // shard 0 in cluster mode
		store   storage.Store
		router  *auditor.Router
		err     error
	)
	// In cluster mode every log line this process emits names its node,
	// so interleaved fleet logs stay attributable.
	hlogger := logger
	if o.nodeID != "" {
		hlogger = logger.With("node", o.nodeID)
	}
	if o.nodeID != "" {
		if o.statePath != "" {
			return errors.New("cluster mode persists per shard via -state-dir; -state is not supported")
		}
		seeds, perr := cluster.ParsePeers(o.peers)
		if perr != nil {
			return fmt.Errorf("-peers: %w", perr)
		}
		advertise := o.advertise
		if advertise == "" {
			advertise = o.listen
		}
		router, err = auditor.NewRouter(auditor.RouterConfig{
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
		backend = router
		srv = router.Shard(0)
	} else {
		srv, store, err = openServer(cfg, o)
		if err != nil {
			return err
		}
		backend = srv
	}

	// Housekeeping: purge expired PoAs (and, in legacy mode, checkpoint
	// the state file) until stop. With the storage engine attached the
	// purge itself is WAL-logged and compaction is automatic, so the
	// sweeper only sweeps. Cluster mode sweeps every local shard.
	legacyCheckpoint := ""
	if store == nil && router == nil {
		legacyCheckpoint = o.statePath
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	shards := []*auditor.Server{srv}
	if router != nil {
		shards = shards[:0]
		for i := 0; i < router.NumShards(); i++ {
			shards = append(shards, router.Shard(i))
		}
	}
	sweepCtx, cancelSweep := context.WithCancel(context.Background())
	defer cancelSweep()
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for i, sh := range shards {
			statePath := ""
			if i == 0 {
				statePath = legacyCheckpoint
			}
			sweeper := &auditor.Sweeper{
				Server:    sh,
				StatePath: statePath,
				Interval:  o.saveEvery,
				Logf:      log.Printf,
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				sweeper.Run(sweepCtx, stop)
			}()
		}
		wg.Wait()
	}()

	// Gossip: the membership loop that keeps the cluster map converged.
	if router != nil {
		go router.Run(sweepCtx)
	}

	handler := auditor.NewHandlerOpts(backend, auditor.HandlerOptions{
		Collector: collector,
		Logger:    hlogger,
		Slow:      time.Duration(o.slowMS) * time.Millisecond,
	})
	httpSrv := &http.Server{Addr: o.listen, Handler: handler}

	// The binary wire transport serves the same verification pipeline on
	// its own listener: persistent connections, batched submissions,
	// coalesced acks (see DESIGN.md "Wire protocol & transport").
	var wireSrv *auditor.WireServer
	if o.wireAddr != "" {
		lis, err := net.Listen("tcp", o.wireAddr)
		if err != nil {
			return fmt.Errorf("wire listener: %w", err)
		}
		wireSrv = auditor.NewWireServer(backend.(auditor.WireBackend), auditor.WireOptions{Logger: hlogger})
		go func() {
			if err := wireSrv.Serve(lis); err != nil {
				log.Printf("wire listener failed: %v", err)
			}
		}()
		log.Printf("binary wire transport on %s", o.wireAddr)
	}

	var debugSrv *http.Server
	if o.debugAddr != "" {
		debugSrv = &http.Server{Addr: o.debugAddr, Handler: debugMux(collector)}
		go func() {
			if err := debugSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener failed: %v", err)
			}
		}()
		log.Printf("debug endpoints on %s (/debug/traces, /debug/pprof/)", o.debugAddr)
	}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		close(stop)
		<-done
		if wireSrv != nil {
			_ = wireSrv.Close()
		}
		if router != nil {
			cancelSweep()
			if err := router.Checkpoint(); err != nil {
				log.Printf("final cluster checkpoint failed: %v", err)
			}
			if err := router.Close(); err != nil {
				log.Printf("router close failed: %v", err)
			}
		} else {
			shutdown(srv, store, legacyCheckpoint)
		}
		if debugSrv != nil {
			_ = debugSrv.Close()
		}
		_ = httpSrv.Close()
	}()

	if router != nil {
		log.Printf("alidrone-auditor cluster node %s listening on %s (shards=%d, peers=%q, state-dir=%q)",
			o.nodeID, o.listen, router.NumShards(), o.peers, o.stateDir)
	} else {
		log.Printf("alidrone-auditor listening on %s (mode=%s, retention=%v, state-dir=%q, state=%q, workers=%d, max-inflight=%d)",
			o.listen, o.mode, o.retention, o.stateDir, o.statePath, srv.Workers(), srv.MaxInflight())
	}
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

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

// openServer opens the configured persistence: the storage engine when
// -state-dir is set (with the legacy -state file as migration source),
// the legacy whole-file restore when only -state is set, a purely
// in-memory server otherwise. The returned store is nil outside engine
// mode.
func openServer(cfg auditor.Config, o options) (*auditor.Server, storage.Store, error) {
	if o.stateDir != "" {
		st, err := storage.OpenFileStore(o.stateDir, storage.Options{NoFsync: !o.fsync, Metrics: cfg.Metrics})
		if err != nil {
			return nil, nil, fmt.Errorf("open state dir: %w", err)
		}
		srv, err := auditor.OpenServer(cfg, st, o.statePath)
		if err != nil {
			_ = st.Close()
			return nil, nil, fmt.Errorf("recover state: %w", err)
		}
		log.Printf("storage engine open in %s", o.stateDir)
		return srv, st, nil
	}
	if o.statePath != "" {
		if _, err := os.Stat(o.statePath); err == nil {
			srv, err := auditor.LoadServer(cfg, o.statePath)
			if err != nil {
				return nil, nil, fmt.Errorf("restore state: %w", err)
			}
			log.Printf("restored state from %s", o.statePath)
			return srv, nil, nil
		}
	}
	srv, err := auditor.NewServer(cfg)
	return srv, nil, err
}

// shutdown flushes state on the way out: a final compacted snapshot and
// store close in engine mode, a legacy checkpoint otherwise. Errors are
// logged, not fatal — the process is exiting either way.
func shutdown(srv *auditor.Server, store storage.Store, legacyCheckpoint string) {
	if store != nil {
		if err := srv.Checkpoint(); err != nil {
			log.Printf("final checkpoint failed: %v", err)
		}
		if err := store.Close(); err != nil {
			log.Printf("store close failed: %v", err)
		}
		return
	}
	checkpoint(srv, legacyCheckpoint)
}

// checkpoint writes the legacy state file, logging (not failing) on error
// — the serving path must not die because the disk hiccuped.
func checkpoint(srv *auditor.Server, statePath string) {
	if statePath == "" {
		return
	}
	if err := srv.SaveState(statePath); err != nil {
		log.Printf("state checkpoint failed: %v", err)
	}
}
