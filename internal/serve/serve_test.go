package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"evax/internal/attacks"
	"evax/internal/dataset"
	"evax/internal/detect"
	"evax/internal/engine"
	"evax/internal/sim"
	"evax/internal/testleak"
	"evax/internal/workload"
)

// testScorer resolves a private scoring handle the way the serving path does
// since the generation refactor: through an engine generation.
func testScorer(t *testing.T, det *detect.Detector, ds *dataset.Dataset, rawDim int, backend string) *engine.Scorer {
	t.Helper()
	g, err := engine.New(det, ds, backend)
	if err != nil {
		t.Fatal(err)
	}
	if g.RawDim() != rawDim {
		t.Fatalf("generation scores %d raw counters, corpus streams %d", g.RawDim(), rawDim)
	}
	return g.NewScorer()
}

// The test lab: one trained detector + normalizer + corpus, built once and
// shared by every serving test (training dominates test wall-clock).
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
		t.Fatalf("lab corpus too small for the serving tests: %d samples", len(labSamples))
	}
	return labDet, labDS, labSamples
}

// startServer boots an in-process server and registers its drain as cleanup.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	det, ds, samples := lab(t)
	srv, err := New(det, ds, len(samples[0].Raw), cfg)
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

// offlineVerdicts computes the reference verdicts for one connection's
// stream: scores through the offline pipeline and flag-window state applied
// sequentially, exactly the contract the server must reproduce.
func offlineVerdicts(t *testing.T, samples []dataset.Sample, secureWindow uint64) []Verdict {
	t.Helper()
	det, ds, _ := lab(t)
	sc := testScorer(t, det, ds, len(samples[0].Raw), "")
	out := make([]Verdict, len(samples))
	var instrStart, secureUntil uint64
	for i := range samples {
		s := &samples[i]
		score := sc.Score(s.Raw, s.Instructions, s.Cycles)
		windowEnd := instrStart + s.Instructions
		var flags uint8
		if score >= sc.Threshold() {
			flags |= VerdictFlagged
			secureUntil = windowEnd + secureWindow
		}
		if flags&VerdictFlagged != 0 || windowEnd < secureUntil {
			flags |= VerdictSecure
		}
		out[i] = Verdict{Seq: uint64(i), Score: score, Flags: flags}
		instrStart = windowEnd
	}
	return out
}

// streamAll sends samples over one connection (accumulating the instruction
// timeline), says bye, and returns everything the server answered.
func streamAll(t *testing.T, addr string, samples []dataset.Sample) (ConnStats, []Verdict, []Reject) {
	t.Helper()
	cl, err := Dial(addr, len(samples[0].Raw))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var instrStart uint64
	for i := range samples {
		s := &samples[i]
		if err := cl.Send(SampleHeader{Seq: uint64(i), InstrStart: instrStart}, s.Instructions, s.Cycles, s.Raw); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		instrStart += s.Instructions
	}
	if err := cl.Bye(); err != nil {
		t.Fatal(err)
	}
	stats, verdicts, rejects, err := cl.DrainStats()
	if err != nil {
		t.Fatal(err)
	}
	return stats, verdicts, rejects
}

// TestServeBitIdenticalToOffline is acceptance criterion (a): four concurrent
// connections stream distinct slices of the corpus, and every verdict —
// score bits, flag bit, secure bit — must equal the offline pipeline's.
func TestServeBitIdenticalToOffline(t *testing.T) {
	testleak.Check(t)
	_, _, samples := lab(t)
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.MaxBatch = 8
	srv := startServer(t, cfg)

	const conns = 4
	chunk := len(samples) / conns
	if chunk == 0 {
		t.Fatalf("corpus too small: %d samples", len(samples))
	}
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			part := samples[ci*chunk : (ci+1)*chunk]
			stats, verdicts, rejects, err := func() (st ConnStats, vs []Verdict, rj []Reject, err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
					}
				}()
				cl, err := Dial(srv.Addr(), len(part[0].Raw))
				if err != nil {
					return st, nil, nil, err
				}
				defer cl.Close()
				var instrStart uint64
				for i := range part {
					s := &part[i]
					if err := cl.Send(SampleHeader{Seq: uint64(i), InstrStart: instrStart}, s.Instructions, s.Cycles, s.Raw); err != nil {
						return st, nil, nil, fmt.Errorf("send %d: %w", i, err)
					}
					instrStart += s.Instructions
				}
				if err := cl.Bye(); err != nil {
					return st, nil, nil, err
				}
				st, vs, rj, err = cl.DrainStats()
				return st, vs, rj, err
			}()
			if err != nil {
				errs[ci] = err
				return
			}
			if len(rejects) != 0 {
				errs[ci] = fmt.Errorf("conn %d: %d rejects on an unloaded server", ci, len(rejects))
				return
			}
			if stats.Accepted != uint64(len(part)) || stats.Scored != uint64(len(part)) {
				errs[ci] = fmt.Errorf("conn %d: accepted=%d scored=%d, sent %d", ci, stats.Accepted, stats.Scored, len(part))
				return
			}
			want := offlineVerdicts(t, part, cfg.SecureWindow)
			if len(verdicts) != len(want) {
				errs[ci] = fmt.Errorf("conn %d: %d verdicts, want %d", ci, len(verdicts), len(want))
				return
			}
			for i := range want {
				got := verdicts[i]
				if got.Seq != want[i].Seq {
					errs[ci] = fmt.Errorf("conn %d verdict %d: seq %d, want %d (ordering broken)", ci, i, got.Seq, want[i].Seq)
					return
				}
				if math.Float64bits(got.Score) != math.Float64bits(want[i].Score) {
					errs[ci] = fmt.Errorf("conn %d seq %d: online score %x != offline %x",
						ci, got.Seq, math.Float64bits(got.Score), math.Float64bits(want[i].Score))
					return
				}
				if got.Flags != want[i].Flags {
					errs[ci] = fmt.Errorf("conn %d seq %d: flags %02x, want %02x", ci, got.Seq, got.Flags, want[i].Flags)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	for ci, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", ci, err)
		}
	}
	// Sanity: the corpus must exercise both flag outcomes or the test is vacuous.
	want := offlineVerdicts(t, samples[:conns*chunk], cfg.SecureWindow)
	flagged := 0
	for _, v := range want {
		if v.Flagged() {
			flagged++
		}
	}
	if flagged == 0 || flagged == len(want) {
		t.Fatalf("degenerate corpus: %d/%d flagged", flagged, len(want))
	}
}

// TestAdmissionControlRejects is acceptance criterion (c): with the batcher
// deliberately stalled, offered load beyond the queue bound is rejected with
// overload frames — never buffered — and every accepted sample still gets
// its verdict once the batcher resumes.
func TestAdmissionControlRejects(t *testing.T) {
	testleak.Check(t)
	_, _, samples := lab(t)
	gate := make(chan struct{})
	cfg := DefaultConfig()
	cfg.MaxBatch = 4
	cfg.QueueBound = 4
	cfg.flushPause = func() { <-gate }
	srv := startServer(t, cfg)

	const total = 100
	cl, err := Dial(srv.Addr(), len(samples[0].Raw))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	type recvOut struct {
		stats    ConnStats
		verdicts []Verdict
		rejects  []Reject
		err      error
	}
	done := make(chan recvOut, 1)
	go func() {
		st, vs, rj, err := cl.DrainStats()
		done <- recvOut{st, vs, rj, err}
	}()

	var instrStart uint64
	for i := 0; i < total; i++ {
		s := &samples[i%len(samples)]
		if err := cl.Send(SampleHeader{Seq: uint64(i), InstrStart: instrStart}, s.Instructions, s.Cycles, s.Raw); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		instrStart += s.Instructions
	}
	// Wait until the server has admitted or refused every frame: releasing
	// the batcher while frames still sit unread in the socket would let
	// them into a draining queue and overstate what the bound admits.
	for deadline := time.Now().Add(10 * time.Second); ; {
		if snap := srv.Metrics().Snapshot(); snap.Accepted+snap.Rejected == total {
			break
		}
		if time.Now().After(deadline) {
			close(gate)
			t.Fatal("server did not admit or refuse every frame within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate) // release the batcher; everything accepted now flushes
	if err := cl.Bye(); err != nil {
		t.Fatal(err)
	}
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}

	// The queue bound caps what could possibly be in flight while the
	// batcher was stalled: one full batch being flushed plus a full queue.
	bound := uint64(cfg.QueueBound + cfg.MaxBatch)
	if out.stats.Accepted > bound {
		t.Fatalf("accepted %d samples with a stalled batcher; bound is %d — queue is not bounded",
			out.stats.Accepted, bound)
	}
	if out.stats.Rejected == 0 || len(out.rejects) == 0 {
		t.Fatal("no rejects: admission control never engaged")
	}
	if got := out.stats.Accepted + out.stats.Rejected; got != total {
		t.Fatalf("accepted %d + rejected %d != sent %d", out.stats.Accepted, out.stats.Rejected, total)
	}
	for _, r := range out.rejects {
		if r.Code != RejectOverload {
			t.Fatalf("reject seq %d carries code %d, want overload (%d)", r.Seq, r.Code, RejectOverload)
		}
	}
	// Zero loss among the accepted: every one has its verdict.
	if uint64(len(out.verdicts)) != out.stats.Accepted || out.stats.Scored != out.stats.Accepted {
		t.Fatalf("accepted %d but delivered %d verdicts (scored %d)",
			out.stats.Accepted, len(out.verdicts), out.stats.Scored)
	}
	snap := srv.Metrics().Snapshot()
	if snap.RejectedLoad == 0 {
		t.Fatal("metrics did not count overload rejects")
	}
}

// TestKillAndDrainLosesNothing is acceptance criterion (b): Drain fires while
// four connections are mid-stream, and every sample the server accepted must
// still receive its verdict before the connection closes.
func TestKillAndDrainLosesNothing(t *testing.T) {
	testleak.Check(t)
	_, _, samples := lab(t)
	cfg := DefaultConfig()
	cfg.Shards = 2
	srv := startServer(t, cfg)

	const conns = 4
	type result struct {
		stats    ConnStats
		verdicts []Verdict
		err      error
	}
	results := make([]result, conns)
	dialed := make(chan struct{}, conns)
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl, err := Dial(srv.Addr(), len(samples[0].Raw))
			dialed <- struct{}{}
			if err != nil {
				results[ci].err = err
				return
			}
			defer cl.Close()
			done := make(chan struct{})
			go func() {
				defer close(done)
				st, vs, _, err := cl.DrainStats()
				results[ci].stats, results[ci].verdicts = st, vs
				if err != nil {
					results[ci].err = err
				}
			}()
			// Stream until the drain kills the connection; send errors are
			// the expected end.
			var instrStart uint64
			for i := 0; ; i++ {
				s := &samples[(ci+i)%len(samples)]
				if err := cl.Send(SampleHeader{Seq: uint64(i), InstrStart: instrStart}, s.Instructions, s.Cycles, s.Raw); err != nil {
					break
				}
				instrStart += s.Instructions
			}
			<-done
		}(ci)
	}

	// Every handshake must complete before the plug is pulled: a fast pair
	// of connections can push Accepted past the gate while a slower dial is
	// still mid-hello, and draining then refuses that handshake.
	for i := 0; i < conns; i++ {
		<-dialed
	}
	// Let real load accumulate, then pull the plug mid-stream.
	for srv.Metrics().Snapshot().Accepted < 500 {
		time.Sleep(time.Millisecond)
	}
	snap, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	var clientVerdicts uint64
	for ci := range results {
		r := results[ci]
		if r.err != nil {
			t.Fatalf("client %d: %v (after %d verdicts)", ci, r.err, len(r.verdicts))
		}
		// The drain contract, per connection: everything accepted was
		// scored and its verdict delivered before the stats frame.
		if r.stats.Scored != r.stats.Accepted {
			t.Errorf("client %d: accepted %d but scored %d", ci, r.stats.Accepted, r.stats.Scored)
		}
		if uint64(len(r.verdicts)) != r.stats.Accepted {
			t.Errorf("client %d: accepted %d but received %d verdicts — %d accepted frames lost",
				ci, r.stats.Accepted, len(r.verdicts), int64(r.stats.Accepted)-int64(len(r.verdicts)))
		}
	}
	for _, r := range results {
		clientVerdicts += uint64(len(r.verdicts))
	}
	if snap.Scored != snap.Accepted {
		t.Errorf("server accepted %d but scored %d", snap.Accepted, snap.Scored)
	}
	if clientVerdicts != snap.Accepted {
		t.Errorf("server accepted %d, clients received %d verdicts", snap.Accepted, clientVerdicts)
	}
	if snap.Accepted < 500 {
		t.Errorf("drain fired with only %d accepted samples; load generator underran", snap.Accepted)
	}

	// After drain: new connections are refused at the handshake.
	if _, err := Dial(srv.Addr(), len(samples[0].Raw)); err == nil {
		t.Error("dial succeeded after drain")
	}
	// Drain is idempotent.
	again, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if again.Accepted != snap.Accepted {
		t.Errorf("second drain snapshot diverges: %d vs %d", again.Accepted, snap.Accepted)
	}
}

// TestHelloValidation: bad handshakes are refused with an error frame.
func TestHelloValidation(t *testing.T) {
	_, _, samples := lab(t)
	srv := startServer(t, DefaultConfig())

	// Wrong dimensionality.
	if _, err := Dial(srv.Addr(), len(samples[0].Raw)+3); err == nil || !strings.Contains(err.Error(), "counters") {
		t.Fatalf("wrong-width hello: %v", err)
	}
	// Good handshake still works afterwards.
	cl, err := Dial(srv.Addr(), len(samples[0].Raw))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Bye(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := cl.DrainStats(); err != nil {
		t.Fatal(err)
	}
	cl.Close()
}

// TestMalformedSampleRejected: a corrupt sample payload draws a reject
// frame, not a dropped connection and not a panic.
func TestMalformedSampleRejected(t *testing.T) {
	_, _, samples := lab(t)
	srv := startServer(t, DefaultConfig())
	cl, err := Dial(srv.Addr(), len(samples[0].Raw))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// A sample frame with a short payload: seq readable, row truncated.
	bad := AppendFrame(nil, FrameSample, []byte{9, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3})
	if err := cl.writeFrame(bad); err != nil {
		t.Fatal(err)
	}
	// A good sample after the bad one must still score.
	s := &samples[0]
	if err := cl.Send(SampleHeader{Seq: 10, InstrStart: 0}, s.Instructions, s.Cycles, s.Raw); err != nil {
		t.Fatal(err)
	}
	if err := cl.Bye(); err != nil {
		t.Fatal(err)
	}
	stats, verdicts, rejects, err := cl.DrainStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(rejects) != 1 || rejects[0].Code != RejectMalformed || rejects[0].Seq != 9 {
		t.Fatalf("rejects = %+v, want one malformed reject for seq 9", rejects)
	}
	if len(verdicts) != 1 || verdicts[0].Seq != 10 {
		t.Fatalf("verdicts = %+v, want one verdict for seq 10", verdicts)
	}
	if stats.Accepted != 1 || stats.Rejected != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestHTTPEndpoints covers the localhost JSON fallback: /healthz, /metrics,
// and /score agreeing bit-for-bit with the offline pipeline.
func TestHTTPEndpoints(t *testing.T) {
	det, ds, samples := lab(t)
	cfg := DefaultConfig()
	cfg.HTTPAddr = "127.0.0.1:0"
	srv := startServer(t, cfg)
	base := "http://" + srv.HTTPAddr()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// Score one sample over HTTP and compare to the offline path.
	sc := testScorer(t, det, ds, len(samples[0].Raw), "")
	s := &samples[7]
	body, _ := json.Marshal(map[string]any{
		"raw": s.Raw, "instructions": s.Instructions, "cycles": s.Cycles,
	})
	resp, err = http.Post(base+"/score", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Score     float64 `json:"score"`
		Threshold float64 `json:"threshold"`
		Flagged   bool    `json:"flagged"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := sc.Score(s.Raw, s.Instructions, s.Cycles)
	if math.Float64bits(got.Score) != math.Float64bits(want) {
		t.Fatalf("http score %x != offline %x", math.Float64bits(got.Score), math.Float64bits(want))
	}
	if got.Flagged != (want >= sc.Threshold()) {
		t.Fatal("http flag disagrees with threshold")
	}

	// Metrics snapshot reflects the scored sample.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"batches", "batch_occupancy"} {
		if _, ok := fields[key]; !ok {
			t.Fatalf("/metrics lacks %q", key)
		}
	}
	if snap.Scored == 0 {
		t.Fatal("metrics report zero scored after a /score call")
	}

	// Bad requests are 4xx, not panics.
	resp, err = http.Post(base+"/score", "application/json", strings.NewReader(`{"raw":[1,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-width /score: %d", resp.StatusCode)
	}
	// pprof is wired.
	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof: %d", resp.StatusCode)
	}
}

// TestStatsPathWrittenOnDrain: the final snapshot lands crash-safely at
// Config.StatsPath.
func TestStatsPathWrittenOnDrain(t *testing.T) {
	_, _, samples := lab(t)
	cfg := DefaultConfig()
	cfg.StatsPath = t.TempDir() + "/final.json"
	srv := startServer(t, cfg)

	stats, _, _ := streamAll(t, srv.Addr(), samples[:25])
	if stats.Scored != 25 {
		t.Fatalf("scored %d, want 25", stats.Scored)
	}
	snap, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Scored != 25 {
		t.Fatalf("snapshot scored %d, want 25", snap.Scored)
	}
	var onDisk Snapshot
	data, err := os.ReadFile(cfg.StatsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk.Scored != snap.Scored || onDisk.Accepted != snap.Accepted {
		t.Fatalf("on-disk snapshot %+v diverges from drain result %+v", onDisk, snap)
	}
	if len(onDisk.BatchOccupancy) != cfg.MaxBatch+1 {
		t.Fatalf("occupancy histogram sized %d, want %d", len(onDisk.BatchOccupancy), cfg.MaxBatch+1)
	}
}
