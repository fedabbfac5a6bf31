package client

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"evax/internal/attacks"
	"evax/internal/dataset"
	"evax/internal/detect"
	"evax/internal/netfault"
	"evax/internal/serve"
	"evax/internal/sim"
	"evax/internal/testleak"
	"evax/internal/workload"
)

// The chaos lab: one trained detector + corpus shared by every test in this
// package (training dominates wall-clock, so it runs once).
var (
	labOnce    sync.Once
	labDet     *detect.Detector
	labDS      *dataset.Dataset
	labSamples []dataset.Sample
)

func lab(t *testing.T) (*detect.Detector, *dataset.Dataset, []dataset.Sample) {
	t.Helper()
	labOnce.Do(func() {
		var samples []dataset.Sample
		cfg := sim.DefaultConfig()
		for _, w := range workload.All()[:4] {
			samples = append(samples, dataset.Collect(cfg, w.Build(1, 8), 2000, 150_000)...)
		}
		for _, a := range attacks.All()[:6] {
			samples = append(samples, dataset.Collect(cfg, a.Build(11, 60), 2000, 150_000)...)
		}
		ds := dataset.New(samples)
		fs := detect.EVAXBase()
		fs.SetEngineered(detect.DefaultEngineered(fs))
		d := detect.NewPerceptron(1, fs)
		idx := make([]int, len(ds.Samples))
		for i := range idx {
			idx[i] = i
		}
		d.Train(ds, idx, detect.DefaultTrainOptions())
		var benign []float64
		for i := range ds.Samples {
			if !ds.Samples[i].Malicious {
				benign = append(benign, d.Score(ds.Samples[i].Derived))
			}
		}
		d.TuneThresholdForFPR(benign, 0.02)
		labDet, labDS, labSamples = d, ds, ds.Samples
	})
	if len(labSamples) < 200 {
		t.Fatalf("lab corpus too small for the chaos tests: %d samples", len(labSamples))
	}
	return labDet, labDS, labSamples
}

// startServer boots an in-process server and registers its drain as cleanup.
func startServer(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	det, ds, samples := lab(t)
	srv, err := serve.New(det, ds, len(samples[0].Raw), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if _, err := srv.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return srv
}

// chaosServerConfig keeps the admission queue far above the offered load:
// an overload reject reorders scoring relative to the fault-free run, which
// would void the digest comparison (and the tests assert none happened).
func chaosServerConfig() serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Shards = 2
	cfg.MaxBatch = 8
	cfg.QueueBound = 4096
	return cfg
}

// chaosClientOptions paces recovery for an in-process server: backoff in the
// low milliseconds, a small in-flight window so verdict reads interleave
// with submissions (forcing read-side faults to fire mid-stream).
func chaosClientOptions() Options {
	return Options{
		DialTimeout:     2 * time.Second,
		RequestTimeout:  2 * time.Second,
		Heartbeat:       250 * time.Millisecond,
		BackoffBase:     time.Millisecond,
		BackoffMax:      8 * time.Millisecond,
		BreakerCooldown: 10 * time.Millisecond,
		Window:          8,
	}
}

// carve deals the corpus into per-client workloads: client i streams
// samples[i*per : (i+1)*per], identically in every run that shares the
// fleet shape.
func carve(t *testing.T, samples []dataset.Sample, clients, per int) [][]Sample {
	t.Helper()
	if clients*per > len(samples) {
		t.Fatalf("corpus has %d samples, need %d", len(samples), clients*per)
	}
	work := make([][]Sample, clients)
	for i := range work {
		part := samples[i*per : (i+1)*per]
		rows := make([]Sample, len(part))
		for j := range part {
			rows[j] = Sample{
				Instructions: part[j].Instructions,
				Cycles:       part[j].Cycles,
				Raw:          part[j].Raw,
			}
		}
		work[i] = rows
	}
	return work
}

// TestChaosExactlyOnce is the flagship acceptance test: four resilient
// clients stream through 24 injected faults (kills, tears, truncations,
// stalls, read kills), and afterwards
//
//   - every accepted sample was scored exactly once (server scored count ==
//     unique samples, replays absorbed as dupes, zero overload rejects),
//   - the merged verdict digest is bit-identical to a fault-free run,
//   - no goroutine leaked.
func TestChaosExactlyOnce(t *testing.T) {
	testleak.Check(t)
	_, _, samples := lab(t)
	const (
		clients = 4
		perConn = 48
		faults  = 6
	)
	work := carve(t, samples, clients, perConn)

	// Fault-free baseline on its own server: the reference digest.
	baseSrv := startServer(t, chaosServerConfig())
	base, err := RunChaos(ChaosConfig{
		Addr: baseSrv.Addr(), RawDim: len(samples[0].Raw),
		Name: "chaos-e2e", FaultsPerClient: 0,
		Options: chaosClientOptions(),
	}, work)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Events) != 0 {
		t.Fatalf("baseline fired %d faults", len(base.Events))
	}
	if base.Rows != clients*perConn {
		t.Fatalf("baseline folded %d verdicts, want %d", base.Rows, clients*perConn)
	}
	// The corpus must exercise both flag outcomes or the digest is vacuous.
	if base.Flagged == 0 || base.Flagged == base.Rows {
		t.Fatalf("degenerate corpus: %d/%d flagged", base.Flagged, base.Rows)
	}

	// The chaos run proper, on a fresh server so its metrics are clean.
	srv := startServer(t, chaosServerConfig())
	rep, err := RunChaos(ChaosConfig{
		Addr: srv.Addr(), RawDim: len(samples[0].Raw),
		Name: "chaos-e2e", FaultsPerClient: faults,
		Stall:   50 * time.Millisecond,
		Options: chaosClientOptions(),
	}, work)
	if err != nil {
		t.Fatal(err)
	}

	// Every planned fault fired.
	planned := netfault.Plan("chaos-e2e", clients, faults, 50*time.Millisecond).Total()
	if planned < 20 {
		t.Fatalf("plan holds %d faults, the acceptance bar is 20", planned)
	}
	if len(rep.Events) != planned {
		t.Fatalf("%d faults fired, planned %d:\n%v", len(rep.Events), planned, rep.Events)
	}

	// Digest bit-identical to the fault-free run.
	if rep.Rows != base.Rows || rep.Digest != base.Digest || rep.Flagged != base.Flagged {
		t.Fatalf("chaos digest %016x (%d rows, %d flagged) != baseline %016x (%d rows, %d flagged)",
			rep.Digest, rep.Rows, rep.Flagged, base.Digest, base.Rows, base.Flagged)
	}

	// Per-client: one verdict per sample, in sequence order.
	for i, r := range rep.Reports {
		if len(r.Verdicts) != perConn {
			t.Fatalf("client %d: %d verdicts, want %d", i, len(r.Verdicts), perConn)
		}
		for j, v := range r.Verdicts {
			if v.Seq != uint64(j) {
				t.Fatalf("client %d verdict %d has seq %d", i, j, v.Seq)
			}
		}
		if r.Stats.Reconnects < uint64(faults) {
			t.Errorf("client %d reconnected %d times through %d faults", i, r.Stats.Reconnects, faults)
		}
	}

	// Exactly-once on the server: unique samples scored once each, the
	// replay traffic absorbed by the dedup ring, and no overload rejects
	// (which would have reordered scoring and voided the comparison).
	snap := srv.Metrics().Snapshot()
	if snap.Scored != uint64(clients*perConn) {
		t.Fatalf("server scored %d, want exactly %d", snap.Scored, clients*perConn)
	}
	if snap.RejectedLoad != 0 {
		t.Fatalf("%d overload rejects: raise QueueBound, the run is not comparable", snap.RejectedLoad)
	}
	if snap.Dupes == 0 {
		t.Fatal("no replays were deduped — the chaos run never exercised the ring")
	}
	if snap.Sessions != clients {
		t.Fatalf("%d sessions for %d clients", snap.Sessions, clients)
	}
	if snap.Resumed < uint64(planned-clients) {
		t.Fatalf("only %d resumes for %d faults", snap.Resumed, planned)
	}
}

// TestChaosDeterministicReplay: the same schedule name against two fresh
// servers produces the identical fault event sequence and the identical
// merged digest — chaos runs are bit-reproducible.
func TestChaosDeterministicReplay(t *testing.T) {
	testleak.Check(t)
	_, _, samples := lab(t)
	const (
		clients = 2
		perConn = 32
		faults  = 4
	)
	work := carve(t, samples, clients, perConn)

	run := func() *ChaosReport {
		srv := startServer(t, chaosServerConfig())
		rep, err := RunChaos(ChaosConfig{
			Addr: srv.Addr(), RawDim: len(samples[0].Raw),
			Name: "chaos-replay", FaultsPerClient: faults,
			Stall:   20 * time.Millisecond,
			Options: chaosClientOptions(),
		}, work)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1 := run()
	r2 := run()
	if r1.Digest != r2.Digest || r1.Rows != r2.Rows {
		t.Fatalf("digests diverge across identical runs: %016x (%d rows) vs %016x (%d rows)",
			r1.Digest, r1.Rows, r2.Digest, r2.Rows)
	}
	if len(r1.Events) != clients*faults {
		t.Fatalf("run 1 fired %d faults, planned %d", len(r1.Events), clients*faults)
	}
	if !reflect.DeepEqual(r1.Events, r2.Events) {
		t.Fatalf("fault sequences diverge:\nrun1: %v\nrun2: %v", r1.Events, r2.Events)
	}
}

// TestClientBreakerAndGiveUp: with no server listening, the client walks
// dial failures through the breaker (open + half-open probes) and gives up
// at MaxFailures with the underlying cause preserved.
func TestClientBreakerAndGiveUp(t *testing.T) {
	testleak.Check(t)
	cl := New(Options{
		Addr: "127.0.0.1:1", RawDim: 4, Name: "breaker",
		DialTimeout:      100 * time.Millisecond,
		BackoffBase:      time.Millisecond,
		BackoffMax:       2 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Millisecond,
		MaxFailures:      5,
	})
	err := cl.Submit(100, 200, []float64{1, 2, 3, 4})
	if err == nil {
		t.Fatal("Submit succeeded against a dead address")
	}
	st := cl.Stats()
	if st.DialFailures != 5 {
		t.Fatalf("%d dial failures, want 5 (MaxFailures)", st.DialFailures)
	}
	if st.BreakerOpens != 1 {
		t.Fatalf("breaker opened %d times, want 1", st.BreakerOpens)
	}
	if st.Dials != 0 || st.Verdicts != 0 {
		t.Fatalf("phantom progress: %+v", st)
	}
}
