// Command evaxfleet hosts a sharded detection fleet in one process: N
// evaxd-style shards (each a full serve instance behind its own listener),
// the deterministic hash ring that routes tenants onto them, and a
// coordinator that heartbeats every shard (hello + ping/pong + admin status)
// and drives fleet-wide generation swaps with all-or-rollback semantics.
// Control-plane traffic (config updates, verdict aggregates, shard stats
// frames) flows over the typed pub/sub bus; the data plane stays on the
// serve framing protocol.
//
// Usage:
//
//	evaxtrain -quick -bundle patch.json                  # train a bundle
//	evaxfleet -bundle patch.json -shards 4               # serve a 4-shard fleet
//	evaxfleet -bundle patch.json -shards 4 -replay corpus.bin
//	evaxfleet -bundle patch.json -shards 4 -swap cand.json -replay corpus.bin
//
// Replay mode prints the merged verdict digest — bit-identical at every
// shard count (the fleet determinism contract, DESIGN.md §16).
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

	"evax/internal/dataset"
	"evax/internal/engine"
	"evax/internal/fleet"
	"evax/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and output streams injected, so the flag
// and exit-code contract is testable: 0 after -h or a clean drain or replay,
// 2 for a flag that does not parse, 1 for any other failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("evaxfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bundle   = fs.String("bundle", "", "detection bundle (detector + normalizer) from evaxtrain -bundle")
		shards   = fs.Int("shards", 2, "detection shards to host (each its own listener)")
		replicas = fs.Int("replicas", 0, "virtual nodes per shard on the routing ring (0 = default)")
		backend  = fs.String("backend", serve.BackendFloat, "scoring kernel: \"float\" or \"quantized\"")
		stateDir = fs.String("state", "", "per-shard generation state root (shard i persists under <state>/shard-<i>)")
		canary   = fs.String("canary", "", "golden corpus shard managers canary-score candidates against")
		beat     = fs.Duration("beat", fleet.DefaultProbeInterval, "coordinator heartbeat interval")

		replay  = fs.String("replay", "", "replay a recorded corpus through the fleet instead of serving")
		tenants = fs.Int("tenants", fleet.DefaultTenants, "concurrent tenant streams in replay mode")
		seed    = fs.Int64("seed", 1, "tenant routing seed; the merged digest is identical for every seed")
		swap    = fs.String("swap", "", "fan this candidate bundle across all shards (mid-replay in replay mode)")
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

	if !engine.ValidBackend(*backend) {
		return fail("evaxfleet: unknown -backend %q (want %q or %q)", *backend, serve.BackendFloat, serve.BackendQuantized)
	}
	if *bundle == "" {
		return fail("evaxfleet: -bundle is required (train one with: evaxtrain -quick -bundle patch.json)")
	}
	if *shards <= 0 {
		return fail("evaxfleet: -shards must be positive, got %d", *shards)
	}
	data, err := os.ReadFile(*bundle)
	if err != nil {
		return fail("evaxfleet: %v", err)
	}

	cfg := fleet.Config{
		Shards:   *shards,
		Replicas: *replicas,
		Serve:    serve.DefaultConfig(),
		StateDir: *stateDir,
	}
	cfg.Serve.Backend = *backend
	if *canary != "" {
		corpus, err := dataset.ReadCorpusFile(*canary)
		if err != nil {
			return fail("evaxfleet: canary corpus: %v", err)
		}
		cfg.Corpus = corpus
	}

	fl, err := fleet.New(data, cfg)
	if err != nil {
		return fail("evaxfleet: %v", err)
	}
	if err := fl.Start(); err != nil {
		return fail("evaxfleet: %v", err)
	}
	active := fl.Managers()[0].Active()
	fmt.Fprintf(stdout, "evaxfleet: %d shards, bundle hash=%s backend=%s rawDim=%d\n",
		fl.Shards(), active.HashHex(), active.Backend(), active.RawDim())
	for i, addr := range fl.Addrs() {
		fmt.Fprintf(stdout, "evaxfleet: shard %d on %s\n", i, addr)
	}

	coord := fleet.NewCoordinator(fl.Members(), *beat, fl.Bus())

	if *replay != "" {
		//evaxlint:ignore goroutine runReplay's swap goroutine is joined on swapDone before it returns
		if err := runReplay(stdout, stderr, fl, coord, *replay, *tenants, *seed, *swap); err != nil {
			return fail("evaxfleet: %v", err)
		}
		return 0
	}

	coord.Start()
	if *swap != "" {
		rep, err := coord.SwapAll(*swap)
		reportSwap(stdout, stderr, rep, err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()

	fmt.Fprintln(stdout, "evaxfleet: draining...")
	coord.Stop()
	snaps, err := fl.Drain()
	if err != nil {
		return fail("evaxfleet: drain: %v", err)
	}
	for _, snap := range snaps {
		out, jerr := json.Marshal(snap)
		if jerr == nil {
			fmt.Fprintf(stdout, "evaxfleet: shard %d drained: %s\n", snap.Shard, out)
		}
	}
	return 0
}

// runReplay streams a recorded corpus through the fleet and prints the
// merged digest. With -swap, the candidate is fanned fleet-wide halfway
// through the first tenant's rows — a mid-replay swap that must drop
// nothing and land every shard on the same epoch.
func runReplay(stdout, stderr io.Writer, fl *fleet.Fleet, coord *fleet.Coordinator, corpusPath string, tenants int, seed int64, swapPath string) error {
	samples, err := dataset.ReadCorpusFile(corpusPath)
	if err != nil {
		return err
	}
	opt := fleet.ReplayOptions{Tenants: tenants, Seed: seed}
	swapDone := make(chan struct{})
	if swapPath != "" {
		// Trigger once, from tenant 0's goroutine, halfway through its rows
		// — a genuinely mid-replay fleet-wide swap.
		rows0 := (len(samples) + tenants - 1) / tenants
		trigger := max(1, rows0/2)
		opt.AfterSend = func(tenant, sent int) {
			if tenant != 0 || sent != trigger {
				return
			}
			//evaxlint:ignore goroutine the swap must run off the tenant's goroutine (SwapAll drains canaries while tenants stream); joined via swapDone before the report prints
			go func() {
				defer close(swapDone)
				rep, err := coord.SwapAll(swapPath)
				reportSwap(stdout, stderr, rep, err)
			}()
		}
	} else {
		close(swapDone)
	}

	coord.Start()
	rep, err := fl.Replay(samples, opt)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	<-swapDone
	coord.Stop()

	out, jerr := json.MarshalIndent(rep, "", "  ")
	if jerr != nil {
		return jerr
	}
	fmt.Fprintf(stdout, "fleet replay: %s\n", out)
	fmt.Fprintf(stdout, "fleet replay: rows=%d flagged=%d shards=%d digest=%s (%.0f rows/sec, skew %.3f)\n",
		rep.Rows, rep.Flagged, rep.Shards, rep.HashHex(), rep.MeanRate, rep.Skew)
	for _, h := range coord.ProbeAll() {
		out, jerr := json.Marshal(h)
		if jerr == nil {
			fmt.Fprintf(stdout, "fleet health: %s\n", out)
		}
	}
	if _, err := fl.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}

// reportSwap prints a fleet-wide swap outcome.
func reportSwap(stdout, stderr io.Writer, rep engine.FleetSwapReport, err error) {
	out, jerr := json.MarshalIndent(rep, "", "  ")
	if jerr == nil {
		fmt.Fprintf(stdout, "evaxfleet: swap: %s\n", out)
	}
	if err != nil {
		fmt.Fprintf(stderr, "evaxfleet: swap: %v\n", err)
	}
}
