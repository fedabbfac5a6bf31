package serve

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"evax/internal/testleak"
)

// TestSessionResumeExactlyOnce is the server half of the exactly-once
// contract: a client scores ten samples, loses its connection without a bye,
// resumes the session and replays everything plus five fresh samples. Every
// replay must be answered from the dedup ring — re-delivered, never
// re-scored — and the final verdict stream must be bit-identical to a
// fault-free offline run of all fifteen samples.
func TestSessionResumeExactlyOnce(t *testing.T) {
	_, _, samples := lab(t)
	cfg := DefaultConfig()
	srv := startServer(t, cfg)
	dim := len(samples[0].Raw)

	cl, ack, err := dialSession(srv.Addr(), 10*time.Second, nil, dim, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Session == 0 {
		t.Fatal("fresh resume returned session 0")
	}
	if ack.Window != uint32(cfg.SessionWindow) {
		t.Fatalf("ack window %d, want %d", ack.Window, cfg.SessionWindow)
	}

	// Phase 1: ten samples, wait for every verdict, then vanish without bye.
	var instrStart uint64
	starts := make([]uint64, 15)
	for i := 0; i < 10; i++ {
		s := &samples[i]
		starts[i] = instrStart
		if err := cl.Send(SampleHeader{Seq: uint64(i), InstrStart: instrStart}, s.Instructions, s.Cycles, s.Raw); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		instrStart += s.Instructions
	}
	for got := 0; got < 10; {
		fr, err := cl.Recv()
		if err != nil {
			t.Fatalf("phase-1 recv: %v", err)
		}
		if fr.Type == FrameVerdict {
			got++
		}
	}
	cl.Close() // abrupt: no bye, the session is now orphaned

	// Phase 2: resume, replay 0..9, continue with 10..14.
	cl2, ack2, err := dialSession(srv.Addr(), 10*time.Second, nil, dim, ack.Session)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if ack2.Session != ack.Session {
		t.Fatalf("resumed session %d, want %d", ack2.Session, ack.Session)
	}
	if ack2.High != 9 {
		t.Fatalf("resume ack high = %d, want 9", ack2.High)
	}
	for i := 0; i < 15; i++ {
		s := &samples[i]
		if i >= 10 {
			starts[i] = instrStart
			instrStart += s.Instructions
		}
		if err := cl2.Send(SampleHeader{Seq: uint64(i), InstrStart: starts[i]}, s.Instructions, s.Cycles, s.Raw); err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
	}
	if err := cl2.Bye(); err != nil {
		t.Fatal(err)
	}
	stats, verdicts, rejects, err := cl2.DrainStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(rejects) != 0 {
		t.Fatalf("unexpected rejects: %+v", rejects)
	}

	// All fifteen seqs answered on the resumed conn: ten from the ring, five
	// scored fresh.
	bySeq := map[uint64]Verdict{}
	for _, v := range verdicts {
		bySeq[v.Seq] = v
	}
	want := offlineVerdicts(t, samples[:15], cfg.SecureWindow)
	if len(bySeq) != 15 {
		t.Fatalf("resumed conn answered %d distinct seqs, want 15", len(bySeq))
	}
	for _, w := range want {
		got, ok := bySeq[w.Seq]
		if !ok {
			t.Fatalf("seq %d never answered on the resumed conn", w.Seq)
		}
		if math.Float64bits(got.Score) != math.Float64bits(w.Score) || got.Flags != w.Flags {
			t.Fatalf("seq %d: verdict (%x, %02x) != offline (%x, %02x)",
				w.Seq, math.Float64bits(got.Score), got.Flags, math.Float64bits(w.Score), w.Flags)
		}
	}

	// Exactly-once on the server: 15 unique samples scored, 10 replays
	// absorbed by the ring and re-delivered without re-scoring.
	if stats.Session != ack.Session {
		t.Fatalf("stats session %d, want %d", stats.Session, ack.Session)
	}
	if stats.SessionAccepted != 15 || stats.SessionScored != 15 {
		t.Fatalf("session accepted=%d scored=%d, want 15/15", stats.SessionAccepted, stats.SessionScored)
	}
	if stats.Dupes != 10 || stats.Resent != 10 {
		t.Fatalf("dupes=%d resent=%d, want 10/10", stats.Dupes, stats.Resent)
	}
	snap := srv.Metrics().Snapshot()
	if snap.Scored != 15 {
		t.Fatalf("server scored %d, want 15 (replays must not re-score)", snap.Scored)
	}
	if snap.Sessions != 1 || snap.Resumed != 1 {
		t.Fatalf("sessions=%d resumed=%d, want 1/1", snap.Sessions, snap.Resumed)
	}
}

// TestSessionStaleReplayRejected: a replay that fell out of the dedup window
// draws RejectStale, not a double score and not a crash.
func TestSessionStaleReplayRejected(t *testing.T) {
	_, _, samples := lab(t)
	cfg := DefaultConfig()
	cfg.SessionWindow = 8
	srv := startServer(t, cfg)
	dim := len(samples[0].Raw)

	cl, _, err := dialSession(srv.Addr(), 10*time.Second, nil, dim, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var instrStart uint64
	for i := 0; i < 16; i++ {
		s := &samples[i%len(samples)]
		if err := cl.Send(SampleHeader{Seq: uint64(i), InstrStart: instrStart}, s.Instructions, s.Cycles, s.Raw); err != nil {
			t.Fatal(err)
		}
		instrStart += s.Instructions
	}
	// Replay seq 0: high is 15, window 8, so 0 is ancient history.
	s := &samples[0]
	if err := cl.Send(SampleHeader{Seq: 0, InstrStart: 0}, s.Instructions, s.Cycles, s.Raw); err != nil {
		t.Fatal(err)
	}
	if err := cl.Bye(); err != nil {
		t.Fatal(err)
	}
	stats, verdicts, rejects, err := cl.DrainStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 16 {
		t.Fatalf("%d verdicts, want 16", len(verdicts))
	}
	if len(rejects) != 1 || rejects[0].Code != RejectStale || rejects[0].Seq != 0 {
		t.Fatalf("rejects = %+v, want one stale reject for seq 0", rejects)
	}
	if stats.SessionScored != 16 {
		t.Fatalf("session scored %d, want 16", stats.SessionScored)
	}
}

// TestResumeUnknownSessionRefused: resuming a session the server never issued
// (or already reaped) is a handshake error, not a silent fresh session.
func TestResumeUnknownSessionRefused(t *testing.T) {
	_, _, samples := lab(t)
	srv := startServer(t, DefaultConfig())
	if _, _, err := dialSession(srv.Addr(), 10*time.Second, nil, len(samples[0].Raw), 424242); err == nil ||
		!strings.Contains(err.Error(), "unknown session") {
		t.Fatalf("unknown-session resume: %v", err)
	}
}

// TestIdleConnReaped is the satellite fix for the hello-only read deadline: a
// client that completes the handshake and then goes silent-dead must be
// reaped by the per-frame idle deadline — its teardown still delivers the
// stats frame on the intact write side — while a client that heartbeats
// stays connected arbitrarily longer than the idle timeout.
func TestIdleConnReaped(t *testing.T) {
	_, _, samples := lab(t)
	cfg := DefaultConfig()
	cfg.IdleTimeout = 100 * time.Millisecond
	srv := startServer(t, cfg)
	dim := len(samples[0].Raw)

	// Silent client: reaped after ~IdleTimeout.
	cl, err := Dial(srv.Addr(), dim)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, _, err := cl.DrainStats(); err != nil {
		t.Fatalf("reaped conn should still deliver its stats frame, got: %v", err)
	}
	if got := srv.Metrics().Snapshot().IdleReaped; got != 1 {
		t.Fatalf("idle_reaped = %d, want 1", got)
	}

	// Heartbeating client: alive well past several idle windows.
	cl2, err := Dial(srv.Addr(), dim)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	for i := 0; i < 8; i++ {
		time.Sleep(50 * time.Millisecond)
		if err := cl2.Ping(uint64(i)); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
		fr, err := cl2.Recv()
		if err != nil {
			t.Fatalf("pong %d: %v", i, err)
		}
		if fr.Type != FramePong {
			t.Fatalf("ping answered with frame type 0x%02x", fr.Type)
		}
		if tok, err := DecodePong(fr.Payload); err != nil || tok != uint64(i) {
			t.Fatalf("pong token %d (%v), want %d", tok, err, i)
		}
	}
	// Still serving after 400ms of ping-only traffic on a 100ms idle window.
	s := &samples[0]
	if err := cl2.Send(SampleHeader{Seq: 1, InstrStart: 0}, s.Instructions, s.Cycles, s.Raw); err != nil {
		t.Fatal(err)
	}
	fr, err := cl2.Recv()
	if err != nil || fr.Type != FrameVerdict {
		t.Fatalf("sample after heartbeats: frame 0x%02x, err %v", fr.Type, err)
	}
	if got := srv.Metrics().Snapshot().IdleReaped; got != 1 {
		t.Fatalf("heartbeating conn was idle-reaped (idle_reaped = %d)", got)
	}
}

// TestHalfCloseTolerated: a client that half-closes (FIN on the write side)
// after its last sample still receives every verdict and the stats frame on
// the intact read side.
func TestHalfCloseTolerated(t *testing.T) {
	testleak.Check(t)
	_, _, samples := lab(t)
	srv := startServer(t, DefaultConfig())
	dim := len(samples[0].Raw)

	cl, err := Dial(srv.Addr(), dim)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var instrStart uint64
	for i := 0; i < 5; i++ {
		s := &samples[i]
		if err := cl.Send(SampleHeader{Seq: uint64(i), InstrStart: instrStart}, s.Instructions, s.Cycles, s.Raw); err != nil {
			t.Fatal(err)
		}
		instrStart += s.Instructions
	}
	if err := cl.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	stats, verdicts, _, err := cl.DrainStats()
	if err != nil {
		t.Fatalf("drain after half-close: %v", err)
	}
	if len(verdicts) != 5 || stats.Scored != 5 {
		t.Fatalf("half-closed conn: %d verdicts, scored %d, want 5/5", len(verdicts), stats.Scored)
	}
}

// TestShedVerdictCountedAndReplayable: a session verdict that meets a full
// outbound queue is shed, counted in /metrics and in the session's stats
// frame, and a replay of its sequence number gets the shed verdict back from
// the dedup ring. The test drives one shard by hand on a server that was
// never started, so nothing drains the queue it fills.
func TestShedVerdictCountedAndReplayable(t *testing.T) {
	testleak.Check(t)
	det, ds, samples := lab(t)
	cfg := DefaultConfig()
	srv, err := New(det, ds, len(samples[0].Raw), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &conn{id: 1, srv: srv, out: make(chan []byte, outQueueDepth)}
	if _, err := srv.attachSession(c, 0); err != nil {
		t.Fatal(err)
	}
	s := &samples[0]
	sample, _, err := DecodeFrame(AppendSample(nil, SampleHeader{Seq: 0}, s.Instructions, s.Cycles, s.Raw))
	if err != nil {
		t.Fatal(err)
	}
	c.handleSample(sample.Payload)
	for len(c.out) < cap(c.out) {
		c.out <- AppendPong(nil, 0)
	}
	batch := append(make([]request, 0, cfg.MaxBatch), <-c.shard.ch)
	lats := make([]time.Duration, 0, cfg.MaxBatch)
	c.shard.flush(&batch, &lats)
	if shed := srv.Metrics().Snapshot().Shed; shed != 1 {
		t.Fatalf("verdicts_shed = %d, want 1", shed)
	}

	// Make room, then replay seq 0: the ring answers with the shed verdict.
	for len(c.out) > 0 {
		<-c.out
	}
	c.handleSample(sample.Payload)
	if len(c.shard.ch) != 0 {
		t.Fatal("the replay of a scored sample was queued for scoring again")
	}
	fr, _, err := DecodeFrame(<-c.out)
	if err != nil || fr.Type != FrameVerdict {
		t.Fatalf("replay answered with frame type 0x%02x (%v), want a verdict", fr.Type, err)
	}
	got, err := DecodeVerdict(fr.Payload)
	if err != nil {
		t.Fatal(err)
	}
	want := offlineVerdicts(t, samples[:1], cfg.SecureWindow)[0]
	if got.Seq != want.Seq || math.Float64bits(got.Score) != math.Float64bits(want.Score) || got.Flags != want.Flags {
		t.Fatalf("replayed verdict %+v, want the scored %+v", got, want)
	}

	// Teardown's flush barrier needs the shard's batcher running.
	srv.shardWg.Add(1)
	go c.shard.run()
	c.teardown()
	close(c.shard.ch)
	srv.shardWg.Wait()
	var stats *ConnStats
	for frame := range c.out {
		fr, _, err := DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Type == FrameStats {
			stats = new(ConnStats)
			if err := json.Unmarshal(fr.Payload, stats); err != nil {
				t.Fatal(err)
			}
		}
	}
	if stats == nil {
		t.Fatal("teardown sent no stats frame")
	}
	if stats.Shed != 1 || stats.SessionScored != 1 || stats.Dupes != 1 || stats.Resent != 1 {
		t.Fatalf("stats frame %+v, want shed 1, scored 1, dupes 1, resent 1", *stats)
	}
}

// TestOverloadRollbackRestoresHigh: a fresh sequence number the shard queue
// refuses counts as never seen. The resume ack's High stays at the last seq
// the queue took, and the slot that seq overwrote in the dedup ring comes
// back, so a replay of the queued seq is still a duplicate, not stale and
// not scored twice. The test drives one shard by hand on a server that was
// never started, so nothing drains the one-slot queue.
func TestOverloadRollbackRestoresHigh(t *testing.T) {
	det, ds, samples := lab(t)
	cfg := DefaultConfig()
	cfg.Shards = 1
	cfg.QueueBound = 1
	cfg.SessionWindow = 4
	srv, err := New(det, ds, len(samples[0].Raw), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &conn{id: 1, srv: srv, out: make(chan []byte, outQueueDepth)}
	ack, err := srv.attachSession(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := &samples[0]
	send := func(seq uint64) {
		t.Helper()
		fr, _, err := DecodeFrame(AppendSample(nil, SampleHeader{Seq: seq}, s.Instructions, s.Cycles, s.Raw))
		if err != nil {
			t.Fatal(err)
		}
		c.handleSample(fr.Payload)
	}
	send(0) // fills the queue
	send(4) // same ring slot as 0, refused for overload
	if len(c.shard.ch) != 1 {
		t.Fatalf("shard queue holds %d samples, want 1", len(c.shard.ch))
	}
	fr, _, err := DecodeFrame(<-c.out)
	if err != nil || fr.Type != FrameReject {
		t.Fatalf("seq 4 answered with frame type 0x%02x (%v), want a reject", fr.Type, err)
	}
	if r, err := DecodeReject(fr.Payload); err != nil || r.Seq != 4 || r.Code != RejectOverload {
		t.Fatalf("reject %+v (%v), want an overload reject of seq 4", r, err)
	}

	c2 := &conn{id: 2, srv: srv, out: make(chan []byte, outQueueDepth)}
	ack2, err := srv.attachSession(c2, ack.Session)
	if err != nil {
		t.Fatal(err)
	}
	if ack2.High != 0 {
		t.Fatalf("resume ack high = %d after seq 4 was refused, want 0", ack2.High)
	}
	c = c2
	send(0)
	if len(c.shard.ch) != 1 || len(c.out) != 0 {
		t.Fatalf("replay of in-flight seq 0: queue %d, out %d, want a silent duplicate", len(c.shard.ch), len(c.out))
	}
	if dupes := srv.Metrics().Snapshot().Dupes; dupes != 1 {
		t.Fatalf("dupes = %d, want 1", dupes)
	}
}
