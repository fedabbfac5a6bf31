package serve

import (
	"sync"
	"testing"
	"time"

	"evax/internal/testleak"
)

func TestNextGap(t *testing.T) {
	const linger = 2 * time.Millisecond
	t0 := time.Unix(1000, 0)
	us := time.Microsecond
	cases := []struct {
		name     string
		gap      time.Duration
		last     time.Time
		enq      time.Time
		linger   time.Duration
		wantGap  time.Duration
		wantLast time.Time
	}{
		// No stamp seen yet: the gap clamps to linger, so a cold shard's
		// estimate stays at linger.
		{"cold start", linger, time.Time{}, t0, linger, linger, t0},
		{"steady", 100 * us, t0, t0.Add(100 * us), linger, 100 * us, t0.Add(100 * us)},
		// 1/8 of the way from 2ms to 0.
		{"shrinks by an eighth", linger, t0, t0, linger, linger - linger/8, t0},
		{"grows by an eighth", 0, t0, t0.Add(800 * us), linger, 100 * us, t0.Add(800 * us)},
		// A gap longer than linger counts as linger.
		{"clamped at linger", 0, t0, t0.Add(time.Hour), linger, linger / 8, t0.Add(time.Hour)},
		// A stamp older than the latest (two connections) counts as a gap of
		// 0 and leaves last where it was.
		{"out of order", 800 * us, t0, t0.Add(-time.Millisecond), linger, 700 * us, t0},
		{"linger <= 0", 800 * us, t0, t0.Add(time.Millisecond), 0, 700 * us, t0.Add(time.Millisecond)},
	}
	for _, c := range cases {
		gap, last := nextGap(c.gap, c.last, c.enq, c.linger)
		if gap != c.wantGap || !last.Equal(c.wantLast) {
			t.Errorf("%s: nextGap = (%v, %v), want (%v, %v)", c.name, gap, last, c.wantGap, c.wantLast)
		}
	}

	// Out-of-order stamps are not counted twice: A at 10, B stamped 5 but
	// taken after A, C at 12 observe gaps 10, 0, 2 — not 10, 0, 7.
	gap, last := time.Duration(0), t0
	for _, at := range []time.Duration{10, 5, 12} {
		gap, last = nextGap(gap, last, t0.Add(at*us), linger)
	}
	want := time.Duration(0)
	for _, obs := range []time.Duration{10, 0, 2} {
		want += (obs*us - want) >> gapWeightShift
	}
	if gap != want || !last.Equal(t0.Add(12*us)) {
		t.Errorf("out-of-order run: gap %v last %v, want %v and stamp 12µs", gap, last.Sub(t0), want)
	}

	// A steady arrival rate converges to its gap.
	gap, last = linger, time.Time{}
	for i := 1; i <= 200; i++ {
		gap, last = nextGap(gap, last, t0.Add(time.Duration(i)*17*us), linger)
	}
	if gap < 17*us || gap > 17*us+8 {
		t.Errorf("steady 17µs arrivals: estimate %v", gap)
	}
}

func TestShouldLinger(t *testing.T) {
	const linger = 2 * time.Millisecond
	us := time.Microsecond
	cases := []struct {
		name        string
		n, maxBatch int
		gap, linger time.Duration
		want        bool
	}{
		{"cold start flushes at once", 1, 32, linger, linger, false},
		{"trickle (2k/s) flushes", 1, 32, 500 * us, linger, false},
		{"surge (60k/s) waits", 1, 32, 17 * us, linger, true},
		// 31 × 64.516µs = 2ms: the boundary is inclusive.
		{"fills exactly at linger", 1, 32, linger / 31, linger, true},
		{"one ns too slow", 1, 32, linger/31 + 1, linger, false},
		{"nearly full batch waits", 31, 32, linger, linger, true},
		{"full batch never waits", 32, 32, 0, linger, false},
		{"gap 0 waits", 1, 32, 0, linger, true},
		{"linger 0 never waits", 1, 32, 0, 0, false},
		{"negative linger never waits", 1, 32, 0, -time.Millisecond, false},
		// (maxBatch − n) × gap overflows int64; the division does not.
		{"huge batch", 1, 1 << 40, 1 << 40, time.Hour, false},
	}
	for _, c := range cases {
		if got := shouldLinger(c.n, c.maxBatch, c.gap, c.linger); got != c.want {
			t.Errorf("%s: shouldLinger(%d, %d, %v, %v) = %v, want %v",
				c.name, c.n, c.maxBatch, c.gap, c.linger, got, c.want)
		}
	}
}

// TestPacedSamplesScoredAtOnce: samples arriving far slower than a batch
// could fill are scored without waiting out the linger. With a 1s linger a
// shard that always waited would hold each verdict about a second.
func TestPacedSamplesScoredAtOnce(t *testing.T) {
	testleak.Check(t)
	_, _, samples := lab(t)
	cfg := DefaultConfig()
	cfg.Linger = time.Second
	srv := startServer(t, cfg)
	cl, err := Dial(srv.Addr(), len(samples[0].Raw))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var instrStart uint64
	for i := 0; i < 5; i++ {
		if i > 0 {
			time.Sleep(20 * time.Millisecond)
		}
		s := &samples[i]
		sent := time.Now()
		if err := cl.Send(SampleHeader{Seq: uint64(i), InstrStart: instrStart}, s.Instructions, s.Cycles, s.Raw); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		instrStart += s.Instructions
		fr, err := cl.Recv()
		if err != nil {
			t.Fatalf("verdict %d: %v", i, err)
		}
		if fr.Type != FrameVerdict {
			t.Fatalf("sample %d answered with frame type 0x%02x, want a verdict", i, fr.Type)
		}
		v, err := DecodeVerdict(fr.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if v.Seq != uint64(i) {
			t.Fatalf("verdict for seq %d, want %d", v.Seq, i)
		}
		if wait := time.Since(sent); wait > 250*time.Millisecond {
			t.Fatalf("verdict %d took %v: the shard waited on the 1s linger", i, wait)
		}
	}
	snap := srv.Metrics().Snapshot()
	if snap.Lingered != 0 {
		t.Fatalf("%d of %d batches lingered on paced traffic, want 0", snap.Lingered, snap.Batches)
	}
	if snap.Batches != 5 {
		t.Fatalf("%d batches for 5 paced samples, want 5", snap.Batches)
	}
}

// TestFloodFillsBatches: a flood still fills MaxBatch-sample batches, and a
// batch the queue cannot fill waits on the linger timer. The flush hook
// holds the first one-sample batch while 63 more samples queue behind it, so
// the batch shapes are fixed: 1 (the cold shard flushes at once), 32 (drained
// from the backlog) and 31, which waits for a 32nd sample that never comes
// and flushes when the linger expires.
func TestFloodFillsBatches(t *testing.T) {
	testleak.Check(t)
	_, _, samples := lab(t)
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	cfg := DefaultConfig()
	cfg.Linger = 100 * time.Millisecond
	cfg.flushPause = func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
	}
	srv := startServer(t, cfg)
	t.Cleanup(release)
	cl, err := Dial(srv.Addr(), len(samples[0].Raw))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const total = 64
	var instrStart uint64
	for i := 0; i < total; i++ {
		s := &samples[i]
		if err := cl.Send(SampleHeader{Seq: uint64(i), InstrStart: instrStart}, s.Instructions, s.Cycles, s.Raw); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		instrStart += s.Instructions
		if i == 0 {
			<-entered
		}
	}
	for deadline := time.Now().Add(10 * time.Second); srv.Metrics().Snapshot().Accepted < total; {
		if time.Now().After(deadline) {
			t.Fatal("server did not admit the flood within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	for i := 0; i < total; i++ {
		fr, err := cl.Recv()
		if err != nil {
			t.Fatalf("verdict %d: %v", i, err)
		}
		if fr.Type != FrameVerdict {
			t.Fatalf("sample %d answered with frame type 0x%02x, want a verdict", i, fr.Type)
		}
	}
	snap := srv.Metrics().Snapshot()
	occ := snap.BatchOccupancy
	if occ[1] != 1 || occ[cfg.MaxBatch] != 1 || occ[cfg.MaxBatch-1] != 1 || snap.Batches != 3 {
		t.Fatalf("batches %d, occupancy %v; want one each of 1, %d and %d samples", snap.Batches, occ, cfg.MaxBatch-1, cfg.MaxBatch)
	}
	if snap.Lingered != 1 {
		t.Fatalf("%d batches lingered, want 1 (the %d-sample tail)", snap.Lingered, cfg.MaxBatch-1)
	}
	if err := cl.Bye(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := cl.DrainStats(); err != nil {
		t.Fatal(err)
	}
}
