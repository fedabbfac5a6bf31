package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"evax/internal/dataset"
	"evax/internal/serve"
)

// stubStream streams identical zero rows and accepts every verdict.
type stubStream struct{ rows []dataset.Sample }

func (s stubStream) row(_ int, seq uint64) *dataset.Sample { return &s.rows[seq%uint64(len(s.rows))] }
func (stubStream) ok(int, serve.Verdict) bool              { return true }

// stallingServer answers every sample at once, except that after the
// stallAfter-th sample it stops reading for stall. Its receive buffer is
// small, so the stall backs up into the client's sends.
func stallingServer(t *testing.T, ln net.Listener, stallAfter int, stall time.Duration) {
	nc, err := ln.Accept()
	if err != nil {
		t.Error(err)
		return
	}
	defer nc.Close()
	if err := nc.(*net.TCPConn).SetReadBuffer(16 << 10); err != nil {
		t.Error(err)
		return
	}
	br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
	write := func(frame []byte) bool {
		if _, err := bw.Write(frame); err != nil {
			t.Error(err)
			return false
		}
		if err := bw.Flush(); err != nil {
			t.Error(err)
			return false
		}
		return true
	}
	samples := 0
	for {
		fr, err := serve.ReadFrame(br)
		if err != nil {
			t.Error(err)
			return
		}
		switch fr.Type {
		case serve.FrameHello:
			h, err := serve.DecodeHello(fr.Payload)
			if err != nil || !write(serve.AppendHello(nil, h)) {
				t.Error("hello", err)
				return
			}
		case serve.FrameSample:
			seq := binary.LittleEndian.Uint64(fr.Payload)
			if !write(serve.AppendVerdict(nil, serve.Verdict{Seq: seq})) {
				return
			}
			if samples++; samples == stallAfter {
				time.Sleep(stall)
			}
		case serve.FrameBye:
			write(serve.AppendFrame(nil, serve.FrameStats, []byte(`{}`)))
			return
		}
	}
}

// TestServerStallShowsInLatency stalls the server mid-run. Because each
// latency runs from the sample's scheduled send time, the stall shows in
// lat_p99_ms even though it also holds the generator back; timing from the
// actual send (what a closed-loop client measures) would hide it for the
// samples that were due during the stall. Every sample is still sent and
// answered: the generator catches up instead of skipping.
func TestServerStallShowsInLatency(t *testing.T) {
	const (
		rate   = 500
		dur    = time.Second
		stall  = 300 * time.Millisecond
		rawDim = 32768 // 256 KiB per sample: socket buffers hold only a few
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		stallingServer(t, ln, 100, stall)
	}()

	rows := make([]dataset.Sample, 4)
	for i := range rows {
		rows[i] = dataset.Sample{Raw: make([]float64, rawDim), Instructions: 2000, Cycles: 4000}
	}
	plan := newOpenPlan("test/stall", 1, ln.Addr().String(), rawDim, rate, 1, dur, stubStream{rows})
	res, err := runOpen(context.Background(), plan)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if res.answered != res.sent || res.sent != len(plan.due[0]) || res.failedOps != 0 {
		t.Fatalf("sent %d of %d scheduled, %d answered, %d failed", res.sent, len(plan.due[0]), res.answered, res.failedOps)
	}
	p99 := quantile(append([]float64(nil), res.latMs...), 0.99)
	if p99 < float64(stall.Milliseconds())*0.8 {
		t.Errorf("lat_p99_ms = %.2f, want the %v stall to show", p99, stall)
	}
	if lag := quantile(append([]float64(nil), res.lagMs...), 0.99); lag < 100 {
		t.Errorf("loadgen lag p99 = %.2f ms, want the stall to have held the generator back", lag)
	}
	// Latency from the actual send time hides the samples that were due
	// during the stall but could only be sent after it.
	fromSend := make([]float64, len(res.latMs))
	for i := range fromSend {
		fromSend[i] = res.latMs[i] - res.lagMs[i]
	}
	if due, sent := quantile(append([]float64(nil), res.latMs...), 0.9), quantile(fromSend, 0.9); due < 4*sent || due < 50 {
		t.Errorf("p90 from due time %.2f ms vs from send time %.2f ms: want the stall visible only in the former", due, sent)
	}
}

// TestPoissonScheduleSeeded pins the schedule to its seed and rate.
func TestPoissonScheduleSeeded(t *testing.T) {
	a := poissonSchedule(2000, 2*time.Second, 7)
	b := poissonSchedule(2000, 2*time.Second, 7)
	c := poissonSchedule(2000, 2*time.Second, 8)
	if len(a) != len(b) || len(a) == len(c) && a[0] == c[0] {
		t.Fatal("schedule must be a function of its seed")
	}
	for i := range a {
		if a[i] != b[i] || (i > 0 && a[i] < a[i-1]) || a[i] >= int64(2*time.Second) {
			t.Fatalf("due[%d] = %d: want equal across calls, ascending, inside the phase", i, a[i])
		}
	}
	if n := len(a); n < 3700 || n > 4300 {
		t.Fatalf("%d arrivals in 2 s at 2000/s", n)
	}
}
