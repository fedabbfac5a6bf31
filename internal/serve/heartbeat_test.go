package serve

import (
	"sync"
	"testing"
	"time"

	"evax/internal/testleak"
)

// TestClientHeartbeatKeepsIdleConnAlive: a Stream waiting on a slow verdict
// pings through the server's idle window instead of being reaped; the
// verdict still arrives on the original connection.
func TestClientHeartbeatKeepsIdleConnAlive(t *testing.T) {
	testleak.Check(t)
	_, _, samples := lab(t)
	cfg := DefaultConfig()
	cfg.IdleTimeout = 200 * time.Millisecond
	// The flush hook holds the verdict back for 600ms, so the stream sits
	// idle-waiting well past the server's idle window and must heartbeat to
	// survive. The hold ends at the latest when the test does, so the
	// server's drain never waits on it.
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	cfg.flushPause = func() { <-gate }
	srv := startServer(t, cfg)
	hold := time.AfterFunc(600*time.Millisecond, release)
	t.Cleanup(func() {
		hold.Stop()
		release()
	})

	cl := NewStream(StreamOptions{
		Addr:            srv.Addr(),
		RawDim:          len(samples[0].Raw),
		Name:            "heartbeat",
		RequestTimeout:  5 * time.Second,
		Heartbeat:       50 * time.Millisecond,
		BackoffBase:     time.Millisecond,
		BreakerCooldown: 10 * time.Millisecond,
	})
	s := &samples[0]
	if err := cl.Submit(s.Instructions, s.Cycles, s.Raw); err != nil {
		t.Fatal(err)
	}
	rep, err := cl.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Verdicts) != 1 {
		t.Fatalf("%d verdicts, want 1", len(rep.Verdicts))
	}
	if rep.Stats.Pings == 0 {
		t.Fatal("stream never heartbeated while the flush held its verdict")
	}
	if rep.Stats.Reconnects != 0 {
		t.Fatalf("%d reconnects: the heartbeat failed to keep the conn alive", rep.Stats.Reconnects)
	}
	if got := srv.Metrics().Snapshot().IdleReaped; got != 0 {
		t.Fatalf("idle reaper fired %d times on a heartbeating stream", got)
	}
}
