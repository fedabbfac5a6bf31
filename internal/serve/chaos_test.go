package serve

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"evax/internal/dataset"
	"evax/internal/engine"
	"evax/internal/netfault"
	"evax/internal/runner"
	"evax/internal/testleak"
)

// chaosSample is one workload row a chaos stream submits: the raw counter
// vector plus the instruction/cycle telemetry positioning it on the timeline.
type chaosSample struct {
	Instructions uint64
	Cycles       uint64
	Raw          []float64
}

// chaosConfig drives one chaos run: a fleet of Streams submitting their
// workloads through deterministically fault-injected connections.
type chaosConfig struct {
	// Addr is the server under test.
	Addr string
	// RawDim is the raw counter dimensionality of every sample.
	RawDim int
	// Name seeds the fault plan and the streams' backoff jitter; the same
	// name (with the same fleet shape) reproduces the same fault sequence
	// bit-for-bit.
	Name string
	// FaultsPerClient is how many consecutive connection attempts of each
	// stream suffer an injected fault before the plan exhausts and
	// connections run clean. Zero runs the fleet fault-free — the baseline
	// a chaos digest is compared against.
	FaultsPerClient int
	// Stall is the pause OpStallWrite faults hold before severing.
	Stall time.Duration
	// Options is the per-stream template; Addr, RawDim, Name, ID and
	// Interpose are overridden per stream.
	Options StreamOptions
}

// chaosReport aggregates a chaos run: per-stream reports, the canonical
// merged digest, and the faults that actually fired.
type chaosReport struct {
	// Reports holds each stream's final accounting, indexed by stream id.
	Reports []StreamReport
	// Digest folds every verdict in canonical (stream, seq) order — the
	// invariant: equal to the fault-free run's digest bit-for-bit.
	Digest uint64
	// Rows and Flagged are the folded verdict count and flag count.
	Rows    int
	Flagged int
	// Events are the injected faults in canonical (stream, attempt) order.
	Events []netfault.Event
}

// runChaos submits work[i] through Stream i — each wrapped by the fault plan
// derived from cfg.Name — and merges the fleet's verdicts into the
// canonical digest. Every stream must finish with exactly one verdict per
// submitted sample or the run errors.
func runChaos(cfg chaosConfig, work [][]chaosSample) (*chaosReport, error) {
	clients := len(work)
	if clients == 0 {
		return nil, fmt.Errorf("chaos run with no work")
	}
	sched := netfault.Plan(cfg.Name, clients, cfg.FaultsPerClient, cfg.Stall)
	reports, err := runner.MapErr(runner.Options{Jobs: clients}, clients, func(i int) (StreamReport, error) {
		o := cfg.Options
		o.Addr = cfg.Addr
		o.RawDim = cfg.RawDim
		o.Name = cfg.Name
		o.ID = i
		o.Interpose = sched.Client(i).Wrap
		st := NewStream(o)
		for _, s := range work[i] {
			if err := st.Submit(s.Instructions, s.Cycles, s.Raw); err != nil {
				return StreamReport{}, fmt.Errorf("chaos stream %d: %w", i, err)
			}
		}
		rep, err := st.Finish()
		if err != nil {
			return StreamReport{}, fmt.Errorf("chaos stream %d: %w", i, err)
		}
		if len(rep.Verdicts) != len(work[i]) {
			return StreamReport{}, fmt.Errorf("chaos stream %d: %d verdicts for %d samples",
				i, len(rep.Verdicts), len(work[i]))
		}
		return rep, nil
	})
	if err != nil {
		return nil, err
	}
	d := engine.NewDigest()
	for i := range reports {
		for _, v := range reports[i].Verdicts {
			d.Add(v.Score, v.Flagged())
		}
	}
	return &chaosReport{
		Reports: reports,
		Digest:  d.Sum(),
		Rows:    d.Rows(),
		Flagged: d.Flagged(),
		Events:  sched.Events.Sorted(),
	}, nil
}

// chaosServerConfig keeps the admission queue far above the offered load:
// an overload reject reorders scoring relative to the fault-free run, which
// would void the digest comparison (and the tests assert none happened). The
// small session window becomes the streams' in-flight window through the
// ack, so verdict reads interleave with submissions (forcing read-side
// faults to fire mid-stream).
func chaosServerConfig() Config {
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.MaxBatch = 8
	cfg.QueueBound = 4096
	cfg.SessionWindow = 8
	return cfg
}

// chaosStreamOptions paces recovery for an in-process server: backoff in the
// low milliseconds.
func chaosStreamOptions() StreamOptions {
	return StreamOptions{
		RequestTimeout:  2 * time.Second,
		Heartbeat:       250 * time.Millisecond,
		BackoffBase:     time.Millisecond,
		BreakerCooldown: 10 * time.Millisecond,
	}
}

// carve deals the corpus into per-stream workloads: stream i submits
// samples[i*per : (i+1)*per], identically in every run that shares the
// fleet shape.
func carve(t *testing.T, samples []dataset.Sample, clients, per int) [][]chaosSample {
	t.Helper()
	if clients*per > len(samples) {
		t.Fatalf("corpus has %d samples, need %d", len(samples), clients*per)
	}
	work := make([][]chaosSample, clients)
	for i := range work {
		part := samples[i*per : (i+1)*per]
		rows := make([]chaosSample, len(part))
		for j := range part {
			rows[j] = chaosSample{
				Instructions: part[j].Instructions,
				Cycles:       part[j].Cycles,
				Raw:          part[j].Raw,
			}
		}
		work[i] = rows
	}
	return work
}

// TestChaosExactlyOnce is the flagship acceptance test: four streams submit
// through 24 injected faults (kills, tears, truncations, stalls, read
// kills), and afterwards
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
	base, err := runChaos(chaosConfig{
		Addr: baseSrv.Addr(), RawDim: len(samples[0].Raw),
		Name: "chaos-e2e", FaultsPerClient: 0,
		Options: chaosStreamOptions(),
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
	rep, err := runChaos(chaosConfig{
		Addr: srv.Addr(), RawDim: len(samples[0].Raw),
		Name: "chaos-e2e", FaultsPerClient: faults,
		Stall:   50 * time.Millisecond,
		Options: chaosStreamOptions(),
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

	// Per-stream: one verdict per sample, in sequence order.
	for i, r := range rep.Reports {
		if len(r.Verdicts) != perConn {
			t.Fatalf("stream %d: %d verdicts, want %d", i, len(r.Verdicts), perConn)
		}
		for j, v := range r.Verdicts {
			if v.Seq != uint64(j) {
				t.Fatalf("stream %d verdict %d has seq %d", i, j, v.Seq)
			}
		}
		if r.Stats.Reconnects < uint64(faults) {
			t.Errorf("stream %d reconnected %d times through %d faults", i, r.Stats.Reconnects, faults)
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
		t.Fatalf("%d sessions for %d streams", snap.Sessions, clients)
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

	run := func() *chaosReport {
		srv := startServer(t, chaosServerConfig())
		rep, err := runChaos(chaosConfig{
			Addr: srv.Addr(), RawDim: len(samples[0].Raw),
			Name: "chaos-replay", FaultsPerClient: faults,
			Stall:   20 * time.Millisecond,
			Options: chaosStreamOptions(),
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

// TestChaosStreamFollowsServerWindow: a stream with default options against
// a server whose session dedup window (16) is below the stream's own cap
// must shrink its in-flight window to the ack's, or a reconnect replays
// sequences the ring has already forgotten and draws RejectStale.
func TestChaosStreamFollowsServerWindow(t *testing.T) {
	testleak.Check(t)
	_, _, samples := lab(t)
	const (
		clients = 2
		perConn = 48
		faults  = 6
	)
	cfg := chaosServerConfig()
	cfg.SessionWindow = 16
	srv := startServer(t, cfg)
	rep, err := runChaos(chaosConfig{
		Addr: srv.Addr(), RawDim: len(samples[0].Raw),
		Name: "chaos-window", FaultsPerClient: faults,
		Stall: 20 * time.Millisecond,
	}, carve(t, samples, clients, perConn))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != clients*perConn {
		t.Fatalf("folded %d verdicts, want %d", rep.Rows, clients*perConn)
	}
	snap := srv.Metrics().Snapshot()
	if snap.Scored != uint64(clients*perConn) || snap.RejectedLoad != 0 {
		t.Fatalf("server scored %d (want %d) with %d overload rejects",
			snap.Scored, clients*perConn, snap.RejectedLoad)
	}
}

// TestClientBreakerAndGiveUp: with no server listening, the stream walks
// dial failures through the breaker (open + half-open probes) and gives up
// at maxFailures with the underlying cause preserved.
func TestClientBreakerAndGiveUp(t *testing.T) {
	testleak.Check(t)
	st := NewStream(StreamOptions{
		Addr: "127.0.0.1:1", RawDim: 4, Name: "breaker",
		RequestTimeout:  100 * time.Millisecond,
		BackoffBase:     time.Millisecond,
		BreakerCooldown: time.Millisecond,
	})
	err := st.Submit(100, 200, []float64{1, 2, 3, 4})
	if err == nil {
		t.Fatal("Submit succeeded against a dead address")
	}
	stats := st.Stats()
	if stats.DialFailures != maxFailures {
		t.Fatalf("%d dial failures, want %d (maxFailures)", stats.DialFailures, maxFailures)
	}
	if stats.BreakerOpens != 1 {
		t.Fatalf("breaker opened %d times, want 1", stats.BreakerOpens)
	}
	if stats.Dials != 0 || stats.Verdicts != 0 {
		t.Fatalf("phantom progress: %+v", stats)
	}
}

// versionBump corrupts the protocol version of the first frame written
// through it (the handshake), so the server refuses the stream.
type versionBump struct {
	net.Conn
	done bool
}

func (v *versionBump) Write(p []byte) (int, error) {
	if !v.done && len(p) > 5 {
		p = append([]byte(nil), p...)
		p[5]++ // TYPE(1) | LEN32(4) | version(4) ...
		v.done = true
	}
	return v.Conn.Write(p)
}

// TestStreamHandshakeRefusal: a handshake the server refuses (bad version,
// bad dim, unknown session) surfaces as ErrRefused on the first attempt,
// with no retry; a TCP "connection refused" is retried until the stream
// gives up.
func TestStreamHandshakeRefusal(t *testing.T) {
	testleak.Check(t)
	_, _, samples := lab(t)
	srv := startServer(t, DefaultConfig())
	dim := len(samples[0].Raw)
	cases := []struct {
		name     string
		o        StreamOptions
		prep     func(*Stream)
		refused  bool
		failures uint64
		message  string
	}{
		{name: "bad version", refused: true, message: "protocol version",
			o: StreamOptions{Addr: srv.Addr(), RawDim: dim,
				Interpose: func(nc net.Conn) net.Conn { return &versionBump{Conn: nc} }}},
		{name: "bad dim", refused: true, message: "counters",
			o: StreamOptions{Addr: srv.Addr(), RawDim: dim + 1}},
		{name: "unknown session", refused: true, message: "unknown session",
			o:    StreamOptions{Addr: srv.Addr(), RawDim: dim},
			prep: func(s *Stream) { s.session = 424242 }},
		{name: "connection refused", failures: maxFailures, message: "giving up",
			o: StreamOptions{Addr: "127.0.0.1:1", RawDim: dim}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.o.Name = "refusal"
			c.o.RequestTimeout = 100 * time.Millisecond
			c.o.BackoffBase = time.Millisecond
			c.o.BreakerCooldown = time.Millisecond
			st := NewStream(c.o)
			if c.prep != nil {
				c.prep(st)
			}
			s := &samples[0]
			err := st.Submit(s.Instructions, s.Cycles, s.Raw)
			if err == nil {
				t.Fatal("Submit succeeded")
			}
			if errors.Is(err, ErrRefused) != c.refused {
				t.Fatalf("errors.Is(%v, ErrRefused) = %v, want %v", err, !c.refused, c.refused)
			}
			if !strings.Contains(err.Error(), c.message) {
				t.Fatalf("error %q lacks %q", err, c.message)
			}
			if stats := st.Stats(); stats.DialFailures != c.failures || stats.Dials != 0 {
				t.Fatalf("%d dial failures and %d dials, want %d and 0", stats.DialFailures, stats.Dials, c.failures)
			}
		})
	}
}
