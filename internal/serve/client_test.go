package serve

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"evax/internal/testleak"
)

// gateConn is a write-only net.Conn: each Write waits for gate to close,
// then records its bytes and counts the call. Close fails a waiting Write.
type gateConn struct {
	net.Conn // nil: the client never reads in these tests

	gate    chan struct{}
	entered chan struct{} // closed when the first Write starts waiting
	closed  chan struct{}

	mu        sync.Mutex
	writes    int
	data      []byte
	finAfter  int // bytes recorded when CloseWrite was called, -1 before
	enterOnce sync.Once
	closeOnce sync.Once
}

func newGateConn() *gateConn {
	return &gateConn{
		gate:     make(chan struct{}),
		entered:  make(chan struct{}),
		closed:   make(chan struct{}),
		finAfter: -1,
	}
}

func (g *gateConn) Write(p []byte) (int, error) {
	g.enterOnce.Do(func() { close(g.entered) })
	select {
	case <-g.gate:
	case <-g.closed:
		return 0, net.ErrClosed
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.writes++
	g.data = append(g.data, p...)
	return len(p), nil
}

func (g *gateConn) CloseWrite() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.finAfter = len(g.data)
	return nil
}

func (g *gateConn) Close() error {
	g.closeOnce.Do(func() { close(g.closed) })
	return nil
}

// clientSample is the sample frame the writer tests queue: a fixed 16-counter
// row, so every frame has the same length.
func clientSample(seq uint64) (SampleHeader, uint64, uint64, []float64) {
	raw := make([]float64, 16)
	for i := range raw {
		raw[i] = float64(seq) + float64(i)/16
	}
	return SampleHeader{Seq: seq, InstrStart: 1000 * seq}, 1000, 2500 + seq, raw
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientCoalescesBacklog: samples sent while the writer is blocked in a
// Write reach the socket together, in at most two Writes (the blocked one
// and one for the backlog), byte-identical to the frames in order, and
// CloseWrite sends its FIN only after every byte.
func TestClientCoalescesBacklog(t *testing.T) {
	testleak.Check(t)
	gc := newGateConn()
	cl := newClient(gc)
	defer cl.Close()

	const k = 50
	var want []byte
	for seq := uint64(0); seq < k; seq++ {
		h, instr, cycles, raw := clientSample(seq)
		want = AppendSample(want, h, instr, cycles, raw)
		if err := cl.Send(h, instr, cycles, raw); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
		if seq == 0 {
			<-gc.entered // the writer now holds frame 0 in a blocked Write
		}
	}
	close(gc.gate)
	if err := cl.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	gc.mu.Lock()
	defer gc.mu.Unlock()
	if gc.writes > 2 {
		t.Errorf("%d samples took %d writes, want at most 2", k, gc.writes)
	}
	if !bytes.Equal(gc.data, want) {
		t.Errorf("socket saw %d bytes that differ from the %d bytes of the %d frames", len(gc.data), len(want), k)
	}
	if gc.finAfter != len(want) {
		t.Errorf("CloseWrite half-closed after %d of %d bytes", gc.finAfter, len(want))
	}
}

// TestClientWriteErrorSticky: once a write fails, the frame it carried is
// lost, and every later call that writes returns that error instead of
// queuing a frame that would never be sent.
func TestClientWriteErrorSticky(t *testing.T) {
	testleak.Check(t)
	local, peer := net.Pipe()
	//evaxlint:ignore droppederr closing the peer is how the test makes writes fail
	peer.Close()
	cl := newClient(local)
	defer cl.Close()

	h, instr, cycles, raw := clientSample(0)
	if err := cl.Send(h, instr, cycles, raw); err != nil {
		t.Fatalf("first send: %v", err)
	}
	waitFor(t, "the writer to fail", func() bool {
		cl.mu.Lock()
		defer cl.mu.Unlock()
		return cl.err != nil
	})
	if err := cl.Send(h, instr, cycles, raw); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("send after the peer has gone: %v, want %v", err, io.ErrClosedPipe)
	}
	if err := cl.Bye(); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("bye: %v", err)
	}
	if err := cl.Ping(1); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("ping: %v", err)
	}
	if _, err := cl.Status(); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("admin: %v", err)
	}
	if err := cl.CloseWrite(); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("close-write: %v", err)
	}
}

// sinkConn is a net.Conn whose Write accepts and discards everything.
type sinkConn struct{ net.Conn }

func (sinkConn) Write(p []byte) (int, error) { return len(p), nil }

func (sinkConn) Close() error { return nil }

// TestClientSendAllocFree: a steady-state Send allocates nothing; the encode
// scratch and both writer buffers are reused.
func TestClientSendAllocFree(t *testing.T) {
	testleak.Check(t)
	cl := newClient(sinkConn{})
	defer cl.Close()
	h, instr, cycles, raw := clientSample(7)
	send := func() {
		if err := cl.Send(h, instr, cycles, raw); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10000; i++ {
		send()
	}
	if a := testing.AllocsPerRun(2000, send); a != 0 {
		t.Errorf("Send allocates %.2f times per call, want 0", a)
	}
}

// TestClientBackpressureAndClose: against a peer that never reads, Send
// blocks once writeBound bytes are pending, and Close unblocks it with an
// error and stops the writer.
func TestClientBackpressureAndClose(t *testing.T) {
	testleak.Check(t)
	local, peer := net.Pipe() // a pipe Write waits for a reader that never comes
	defer peer.Close()
	cl := newClient(local)

	h, instr, cycles, raw := clientSample(0)
	frameLen := len(AppendSample(nil, h, instr, cycles, raw))
	errCh := make(chan error, 1)
	go func() {
		for {
			if err := cl.Send(h, instr, cycles, raw); err != nil {
				errCh <- err
				return
			}
		}
	}()
	waitFor(t, "the pending backlog to reach the bound", func() bool {
		cl.mu.Lock()
		defer cl.mu.Unlock()
		return len(cl.pending) >= writeBound
	})
	time.Sleep(20 * time.Millisecond) // a sender that ignored the bound would keep appending meanwhile
	cl.mu.Lock()
	pending := len(cl.pending)
	cl.mu.Unlock()
	if pending >= writeBound+frameLen {
		t.Errorf("%d bytes pending, want below the bound plus one frame (%d)", pending, writeBound+frameLen)
	}
	select {
	case err := <-errCh:
		t.Fatalf("Send returned %v instead of blocking at the bound", err)
	default:
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("blocked Send returned %v, want %v", err, net.ErrClosed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the blocked Send")
	}
}

// TestDialRefusalStopsWriter: a refused hello closes the client through
// Close, so its writer does not outlive the failed Dial.
func TestDialRefusalStopsWriter(t *testing.T) {
	testleak.Check(t)
	_, _, samples := lab(t)
	srv := startServer(t, DefaultConfig())
	if _, err := Dial(srv.Addr(), len(samples[0].Raw)+1); !errors.Is(err, ErrRefused) {
		t.Fatalf("wrong-width hello: %v, want a refusal", err)
	}
}
