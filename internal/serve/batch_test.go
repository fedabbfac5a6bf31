package serve

import (
	"sync"
	"testing"
	"time"

	"evax/internal/testleak"
)

// TestPacedSamplesScoredAtOnce: paced samples are each scored in a batch of
// their own as soon as they arrive; the shard never holds one back for
// company.
func TestPacedSamplesScoredAtOnce(t *testing.T) {
	testleak.Check(t)
	_, _, samples := lab(t)
	cfg := DefaultConfig()
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
			t.Fatalf("verdict %d took %v: the shard held an idle sample back", i, wait)
		}
	}
	snap := srv.Metrics().Snapshot()
	if snap.Batches != 5 {
		t.Fatalf("%d batches for 5 paced samples, want 5", snap.Batches)
	}
}

// TestFloodFillsBatches: a backlog still fills MaxBatch-sample batches,
// though the shard never waits for one to fill. The flush hook holds the
// first one-sample batch while 63 more samples queue behind it, so the batch
// shapes are fixed: 1 (the idle shard flushes at once), 32 (drained from the
// backlog) and the 31-sample tail, flushed as soon as the queue is empty.
func TestFloodFillsBatches(t *testing.T) {
	testleak.Check(t)
	_, _, samples := lab(t)
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	cfg := DefaultConfig()
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
	if err := cl.Bye(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := cl.DrainStats(); err != nil {
		t.Fatal(err)
	}
}
