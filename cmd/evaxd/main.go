// Command evaxd is the online detection daemon: it loads a deployed
// detection bundle (the vendor-distributed detector patch) into a versioned
// engine generation and serves the streaming scoring protocol —
// micro-batched, backpressured, observable — answering each raw counter
// window with a verdict frame. A localhost HTTP listener exposes /metrics,
// /score, /healthz and /debug/pprof. SIGINT or SIGTERM drains gracefully:
// accept stops, every accepted sample still receives its verdict, and the
// final metrics snapshot is persisted crash-safely.
//
// Live vaccination: with -watch, the daemon rescans a candidate intake
// directory and hot-swaps validated bundles with zero downtime — each
// candidate is canary-scored against the -canary golden corpus, gated on
// verdict agreement with the active generation, staged crash-safely under
// -state, atomically swapped, health-probed, and rolled back automatically
// if the probe fails. Connected clients never drop a frame: in-flight
// batches finish on the generation they started on. Operators can also
// drive swaps remotely via the protocol's admin frame (see serve.Admin).
//
// Usage:
//
//	evaxtrain -quick -bundle patch.json     # train and export a bundle
//	evaxd -bundle patch.json -addr 127.0.0.1:9317 -http 127.0.0.1:9318
//	evaxd -bundle patch.json -replay corpus.bin -seed 7   # deterministic replay
//	evaxd -bundle patch.json -watch updates/ -state gen-state/ -canary corpus.bin
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"evax/internal/dataset"
	"evax/internal/engine"
	"evax/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and output streams injected, so the flag
// and exit-code contract is testable: 0 after -h or a clean drain or replay,
// 2 for a flag that does not parse, 1 for any other failure.
func run(args []string, stdout, stderr io.Writer) int {
	def := serve.DefaultConfig()
	fs := flag.NewFlagSet("evaxd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bundle    = fs.String("bundle", "", "detection bundle (detector + normalizer) from evaxtrain -bundle")
		addr      = fs.String("addr", "127.0.0.1:9317", "framing-protocol listen address")
		httpAddr  = fs.String("http", "", "HTTP fallback listen address (/metrics, /score, /healthz, /debug/pprof); empty disables")
		batch     = fs.Int("batch", def.MaxBatch, "max samples per scoring micro-batch")
		queue     = fs.Int("queue", def.QueueBound, "per-shard ingest queue bound; samples beyond it are rejected, not buffered")
		shards    = fs.Int("shards", def.Shards, "scoring lanes (connections are pinned round-robin)")
		shardID   = fs.Int("shard-id", 0, "fleet shard ID stamped on metrics snapshots and per-conn stats frames (0 for standalone)")
		window    = fs.Uint64("window", def.SecureWindow, "post-flag secure window in committed instructions")
		statsPath = fs.String("stats", "", "write the final metrics snapshot here on drain (crash-safe)")
		replay    = fs.String("replay", "", "replay a recorded corpus (dataset corpus file) instead of serving")
		seed      = fs.Int64("seed", 1, "replay scoring-order seed; the verdict digest is identical for every seed")
		jobs      = fs.Int("jobs", 0, "replay worker count (0 = GOMAXPROCS)")
		backend   = fs.String("backend", serve.BackendFloat, "scoring kernel: \"float\" (bit-identical to offline scoring) or \"quantized\" (int8 fixed-point, fastest)")
		watch     = fs.String("watch", "", "rescan this directory for candidate bundles and hot-swap validated ones (live vaccination)")
		watchTick = fs.Duration("watch-every", 2*time.Second, "candidate rescan interval for -watch")
		stateDir  = fs.String("state", "", "generation state directory: crash-safe staging of the active/fallback bundle pair")
		canary    = fs.String("canary", "", "golden replay corpus candidates are canary-scored against before going live")
		agreement = fs.Float64("agreement", engine.DefaultAgreementGate, "minimum canary verdict agreement a candidate must reach against the active generation")

		idle       = fs.Duration("idle", def.IdleTimeout, "idle read deadline per frame; a conn silent this long is reaped (0 disables)")
		sessWindow = fs.Int("session-window", def.SessionWindow, "per-session dedup ring size: how many in-flight sequences reconnect replay can span")
		sessIdle   = fs.Duration("session-idle", def.SessionIdle, "how long a detached session awaits resume before being reaped")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		return 1
	}

	// Validate the backend selector here, where a typo gets a usage message,
	// not a compile error from deep inside generation construction.
	if !engine.ValidBackend(*backend) {
		return fail("evaxd: unknown -backend %q (want %q or %q)", *backend, serve.BackendFloat, serve.BackendQuantized)
	}
	if *bundle == "" && !engine.HasState(*stateDir) {
		return fail("evaxd: -bundle is required (train one with: evaxtrain -quick -bundle patch.json)")
	}
	if *agreement <= 0 || *agreement > 1 {
		return fail("evaxd: -agreement must be in (0, 1], got %g", *agreement)
	}

	mcfg := engine.ManagerConfig{
		Dir:           *stateDir,
		Backend:       *backend,
		AgreementGate: *agreement,
	}
	if *canary != "" {
		corpus, err := dataset.ReadCorpusFile(*canary)
		if err != nil {
			return fail("evaxd: canary corpus: %v", err)
		}
		mcfg.Corpus = corpus
	}

	// Recovery order: a generation ledger under -state wins (it is what was
	// actually serving when the last process died — possibly a later
	// generation than -bundle); otherwise adopt -bundle as generation one.
	var mgr *engine.Manager
	if engine.HasState(*stateDir) {
		var err error
		mgr, err = engine.Open(mcfg)
		if err != nil {
			if *bundle == "" {
				return fail("evaxd: recovering generation state: %v", err)
			}
			fmt.Fprintf(stderr, "evaxd: generation state unrecoverable (%v); falling back to -bundle\n", err)
		}
	}
	if mgr == nil {
		gen, err := engine.Load(*bundle, *backend)
		if err != nil {
			return fail("evaxd: %v", err)
		}
		mgr, err = engine.NewManager(gen, mcfg)
		if err != nil {
			return fail("evaxd: %v", err)
		}
	}
	active := mgr.Active()
	fmt.Fprintf(stdout, "evaxd: bundle %s hash=%s backend=%s rawDim=%d\n",
		displayPath(active.Path(), *bundle), active.HashHex(), active.Backend(), active.RawDim())

	if *replay != "" {
		samples, err := dataset.ReadCorpusFile(*replay)
		if err != nil {
			return fail("evaxd: %v", err)
		}
		start := time.Now()
		res, err := serve.ReplayGeneration(active, samples, *seed, *jobs)
		if err != nil {
			return fail("evaxd: %v", err)
		}
		if d := time.Since(start).Seconds(); d > 0 {
			res.MeanRate = float64(res.Rows) / d
		}
		fmt.Fprintf(stdout, "replay: rows=%d flagged=%d seed=%d hash=%s (%.0f rows/sec)\n",
			res.Rows, res.Flagged, res.Seed, res.HashHex(), res.MeanRate)
		return 0
	}

	cfg := def
	cfg.Addr = *addr
	cfg.HTTPAddr = *httpAddr
	cfg.MaxBatch = *batch
	cfg.QueueBound = *queue
	cfg.Shards = *shards
	cfg.ShardID = *shardID
	cfg.SecureWindow = *window
	cfg.StatsPath = *statsPath
	cfg.Backend = *backend
	cfg.IdleTimeout = *idle
	cfg.SessionWindow = *sessWindow
	cfg.SessionIdle = *sessIdle

	srv, err := serve.NewFromManager(mgr, cfg)
	if err != nil {
		return fail("evaxd: %v", err)
	}
	if err := srv.Start(); err != nil {
		return fail("evaxd: %v", err)
	}
	fmt.Fprintf(stdout, "evaxd: serving %d-counter windows on %s", active.RawDim(), srv.Addr())
	if h := srv.HTTPAddr(); h != "" {
		fmt.Fprintf(stdout, " (http %s)", h)
	}
	fmt.Fprintln(stdout)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *watch != "" {
		fmt.Fprintf(stdout, "evaxd: watching %s for candidate bundles (every %s, gate %.4f)\n",
			*watch, *watchTick, *agreement)
		watchLoop(ctx, stdout, stderr, mgr, *watch, *watchTick)
	} else {
		<-ctx.Done()
	}

	fmt.Fprintln(stdout, "evaxd: draining...")
	snap, err := srv.Drain()
	if err != nil {
		return fail("evaxd: drain: %v", err)
	}
	out, jerr := json.MarshalIndent(snap, "", "  ")
	if jerr == nil {
		fmt.Fprintf(stdout, "evaxd: drained: %s\n", out)
	}
	return 0
}

// watchLoop rescans the candidate intake directory until the context ends,
// reporting every promotion decision. Deterministic: candidates are taken in
// sorted filename order and each content hash is decided exactly once.
func watchLoop(ctx context.Context, stdout, stderr io.Writer, mgr *engine.Manager, dir string, every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		reports, err := mgr.Rescan(dir)
		if err != nil {
			fmt.Fprintf(stderr, "evaxd: rescan: %v\n", err)
			continue
		}
		for _, rep := range reports {
			out, err := json.Marshal(rep)
			if err != nil {
				continue
			}
			fmt.Fprintf(stdout, "evaxd: candidate: %s\n", out)
		}
	}
}

// displayPath prefers the generation's recorded source path, falling back to
// the -bundle flag (recovered generations keep their staged path).
func displayPath(genPath, flagPath string) string {
	if genPath != "" {
		return genPath
	}
	return flagPath
}
