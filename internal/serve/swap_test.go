package serve

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"evax/internal/dataset"
	"evax/internal/defense"
	"evax/internal/engine"
	"evax/internal/testleak"
)

// startSwapServer boots a server whose manager is wired for live vaccination:
// crash-safe state directory (returned, so tests can inspect staging), golden
// canary corpus, default agreement gate.
func startSwapServer(t *testing.T, cfg Config, canary []dataset.Sample) (*Server, string) {
	t.Helper()
	det, ds, _ := lab(t)
	g, err := engine.New(det, ds, cfg.Backend)
	if err != nil {
		t.Fatal(err)
	}
	stateDir := t.TempDir()
	mgr, err := engine.NewManager(g, engine.ManagerConfig{
		Dir:     stateDir,
		Backend: cfg.Backend,
		Corpus:  canary,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewFromManager(mgr, cfg)
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
	return srv, stateDir
}

// writeShiftedCandidate saves a candidate bundle that is byte-distinct from
// the lab bundle (different threshold) but verdict-identical on every lab
// sample: the new threshold is placed strictly inside the score gap around the
// incumbent threshold, so no flag decision moves. Swapping it in must
// therefore never change a verdict — the strongest possible zero-downtime
// check — while hashes, epochs and digests still prove the swap happened.
func writeShiftedCandidate(t *testing.T, dir string) string {
	t.Helper()
	det, ds, samples := lab(t)
	sc := testScorer(t, det, ds, len(samples[0].Raw), "")
	thr := sc.Threshold()
	lo, hi := math.Inf(-1), math.Inf(1) // nearest scores below / at-or-above thr
	for i := range samples {
		s := &samples[i]
		score := sc.Score(s.Raw, s.Instructions, s.Cycles)
		if score < thr && score > lo {
			lo = score
		}
		if score >= thr && score < hi {
			hi = score
		}
	}
	// Any threshold in (lo, hi] preserves every flag decision; bundle
	// validation additionally demands it be non-negative.
	newThr := thr / 2
	if !math.IsInf(lo, -1) {
		newThr = lo + (thr-lo)/2
	}
	if newThr == thr || newThr < 0 {
		t.Fatalf("degenerate score gap: thr=%v lo=%v hi=%v", thr, lo, hi)
	}
	cand := *det
	cand.Threshold = newThr
	path := filepath.Join(dir, "candidate.json")
	if err := defense.SaveBundle(path, &cand, ds); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeHostileCandidate saves a candidate whose threshold of zero flags every
// window (sigmoid scores are strictly positive), so its verdicts disagree
// with the incumbent on every benign row — the canary gate must refuse it.
func writeHostileCandidate(t *testing.T, dir string) string {
	t.Helper()
	det, ds, _ := lab(t)
	cand := *det
	cand.Threshold = 0
	path := filepath.Join(dir, "hostile.json")
	if err := defense.SaveBundle(path, &cand, ds); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAdminCodecRoundTrip: the FrameAdmin wire codec survives a round trip,
// rejects empty payloads, bounds the operand path, and truncates oversized
// paths on encode rather than producing an undecodable frame.
func TestAdminCodecRoundTrip(t *testing.T) {
	for _, a := range []Admin{
		{Op: AdminStatus},
		{Op: AdminRollback},
		{Op: AdminSwap, Path: "/var/lib/evax/candidates/gen-00ff.json"},
	} {
		buf := AppendAdmin(nil, a)
		fr, rest, err := DecodeFrame(buf)
		if err != nil || len(rest) != 0 || fr.Type != FrameAdmin {
			t.Fatalf("frame round trip: %+v rest=%d err=%v", fr, len(rest), err)
		}
		got, err := DecodeAdmin(fr.Payload)
		if err != nil || got != a {
			t.Fatalf("admin round trip: got %+v want %+v err=%v", got, a, err)
		}
	}
	if _, err := DecodeAdmin(nil); err == nil {
		t.Fatal("empty admin payload decoded")
	}
	if _, err := DecodeAdmin(make([]byte, 2+maxAdminPath)); err == nil {
		t.Fatal("oversized admin path decoded")
	}
	// Encode-side truncation keeps the frame within the decode bound.
	long := Admin{Op: AdminSwap, Path: strings.Repeat("x", maxAdminPath+100)}
	fr, _, err := DecodeFrame(AppendAdmin(nil, long))
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAdmin(fr.Payload)
	if err != nil || len(got.Path) != maxAdminPath {
		t.Fatalf("truncated path length %d, want %d (err=%v)", len(got.Path), maxAdminPath, err)
	}
}

// TestAdminStatusSwapRollback drives the admin protocol end to end over a
// live connection: status reports the generation pair, a swap promotes a
// gated candidate (canary numbers included), a rollback restores the
// incumbent, and malformed operations answer with errors, not hangs.
func TestAdminStatusSwapRollback(t *testing.T) {
	_, _, samples := lab(t)
	canary := samples[:200]
	srv, _ := startSwapServer(t, DefaultConfig(), canary)
	origHash := srv.Manager().Active().HashHex()

	cl, err := Dial(srv.Addr(), len(samples[0].Raw))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	st, err := cl.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.ActiveHash != origHash || st.FallbackHash != "" || st.Epoch != 1 {
		t.Fatalf("fresh status: %+v, want active %s epoch 1", st, origHash)
	}
	if st.RawDim != len(samples[0].Raw) || st.Backend != BackendFloat {
		t.Fatalf("status provenance: %+v", st)
	}

	// Malformed operations: refused with an error result, connection stays up.
	if res, err := cl.Swap(""); err != nil || res.Ok || !strings.Contains(res.Error, "path") {
		t.Fatalf("empty-path swap: %+v err=%v", res, err)
	}
	if res, err := cl.Swap(filepath.Join(t.TempDir(), "missing.json")); err != nil || res.Ok {
		t.Fatalf("missing-candidate swap: %+v err=%v", res, err)
	} else if res.Status.ActiveHash != origHash || res.Status.Epoch != 1 {
		t.Fatalf("failed swap moved the generation: %+v", res.Status)
	}
	if res, err := cl.Rollback(); err != nil || res.Ok {
		t.Fatalf("rollback with no fallback: %+v err=%v", res, err)
	}
	if res, err := cl.Admin(Admin{Op: 99}); err != nil || res.Ok || !strings.Contains(res.Error, "unknown admin op") {
		t.Fatalf("unknown op: %+v err=%v", res, err)
	}

	// A real promotion: canary-gated, staged, swapped.
	candPath := writeShiftedCandidate(t, t.TempDir())
	res, err := cl.Swap(candPath)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok || res.Report == nil || !res.Report.Swapped {
		t.Fatalf("swap refused: %+v", res)
	}
	rep := res.Report
	if rep.CanaryRows != len(canary) || rep.Agreement != 1 || rep.Gate != engine.DefaultAgreementGate {
		t.Fatalf("canary numbers: rows=%d agreement=%v gate=%v", rep.CanaryRows, rep.Agreement, rep.Gate)
	}
	if rep.PrevHash != origHash || rep.ActiveHash == origHash || rep.CanaryDigest == "" {
		t.Fatalf("report lineage: %+v", rep)
	}
	if res.Status.ActiveHash != rep.ActiveHash || res.Status.FallbackHash != origHash || res.Status.Epoch != 2 {
		t.Fatalf("post-swap status: %+v", res.Status)
	}
	// The server-side snapshot carries the new provenance.
	snap := srv.snapshot()
	if snap.BundleHash != rep.ActiveHash || snap.Epoch != 2 {
		t.Fatalf("snapshot provenance: hash=%s epoch=%d", snap.BundleHash, snap.Epoch)
	}

	// Operator rollback: the incumbent returns, the candidate parks in the
	// fallback slot.
	rb, err := cl.Rollback()
	if err != nil || !rb.Ok {
		t.Fatalf("rollback: %+v err=%v", rb, err)
	}
	if rb.Status.ActiveHash != origHash || rb.Status.FallbackHash != rep.ActiveHash || rb.Status.Epoch != 3 {
		t.Fatalf("post-rollback status: %+v", rb.Status)
	}
}

// TestHotSwapZeroDroppedFrames is the live-vaccination acceptance test: four
// connections stream flat out while an operator connection promotes a
// candidate mid-stream. Every accepted frame must still receive its verdict,
// bit-identical to the offline pipeline (the candidate is verdict-preserving
// by construction), and the post-swap replay digest must reproduce the
// promotion report's canary digest. Run under -race.
func TestHotSwapZeroDroppedFrames(t *testing.T) {
	testleak.Check(t)
	_, _, samples := lab(t)
	canary := samples[:300]
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.QueueBound = 4096
	srv, _ := startSwapServer(t, cfg, canary)
	origHash := srv.Manager().Active().HashHex()
	candPath := writeShiftedCandidate(t, t.TempDir())

	const conns = 4
	const perConn = 2000
	type result struct {
		stats    ConnStats
		verdicts []Verdict
		rejects  []Reject
		err      error
	}
	results := make([]result, conns)
	parts := make([][]dataset.Sample, conns)
	for ci := range parts {
		// Round-robin slices of the corpus, offset per connection.
		part := make([]dataset.Sample, perConn)
		for i := range part {
			part[i] = samples[(ci+i)%len(samples)]
		}
		parts[ci] = part
	}

	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			results[ci] = func() (r result) {
				cl, err := Dial(srv.Addr(), len(samples[0].Raw))
				if err != nil {
					r.err = err
					return r
				}
				defer cl.Close()
				var instrStart uint64
				for i := range parts[ci] {
					s := &parts[ci][i]
					if err := cl.Send(SampleHeader{Seq: uint64(i), InstrStart: instrStart}, s.Instructions, s.Cycles, s.Raw); err != nil {
						r.err = err
						return r
					}
					instrStart += s.Instructions
				}
				if err := cl.Bye(); err != nil {
					r.err = err
					return r
				}
				r.stats, r.verdicts, r.rejects, r.err = cl.DrainStats()
				return r
			}()
		}(ci)
	}

	// The operator: wait until the stream is genuinely mid-flight, then
	// promote over a dedicated quiescent connection.
	var swapRes AdminResult
	swapErr := make(chan error, 1)
	go func() {
		for srv.Metrics().Snapshot().Accepted < conns*perConn/4 {
			time.Sleep(100 * time.Microsecond)
		}
		cl, err := Dial(srv.Addr(), len(samples[0].Raw))
		if err != nil {
			swapErr <- err
			return
		}
		defer cl.Close()
		swapRes, err = cl.Swap(candPath)
		swapErr <- err
	}()
	if err := <-swapErr; err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if !swapRes.Ok || swapRes.Report == nil || !swapRes.Report.Swapped {
		t.Fatalf("mid-stream swap refused: %+v", swapRes)
	}
	if swapRes.Report.PrevHash != origHash || swapRes.Status.Epoch != 2 ||
		swapRes.Status.ActiveHash != swapRes.Report.ActiveHash {
		t.Fatalf("swap lineage: %+v", swapRes)
	}

	// Zero dropped frames: every connection's accepted count equals its
	// scored count equals its delivered verdicts, with no rejects at all,
	// and the server scored exactly what the connections accepted.
	var accepted uint64
	for ci, r := range results {
		if r.err != nil {
			t.Fatalf("client %d: %v", ci, r.err)
		}
		accepted += r.stats.Accepted
		if len(r.rejects) != 0 {
			t.Errorf("client %d: %d rejects during hot swap", ci, len(r.rejects))
		}
		if r.stats.Accepted != perConn || r.stats.Scored != perConn {
			t.Errorf("client %d: accepted=%d scored=%d, sent %d — frames dropped during swap",
				ci, r.stats.Accepted, r.stats.Scored, perConn)
		}
		if len(r.verdicts) != perConn {
			t.Errorf("client %d: %d verdicts for %d sent", ci, len(r.verdicts), perConn)
		}
	}
	if scored := srv.Metrics().Snapshot().Scored; scored != accepted {
		t.Fatalf("server scored %d, connections accepted %d", scored, accepted)
	}

	// Bit-exactness across the swap: the candidate preserves every flag
	// decision and (same weights) every score bit, so each connection's full
	// verdict stream must equal the offline reference regardless of which
	// generation scored which batch.
	for ci, r := range results {
		want := offlineVerdicts(t, parts[ci], cfg.SecureWindow)
		for i := range want {
			got := r.verdicts[i]
			if got.Seq != want[i].Seq ||
				math.Float64bits(got.Score) != math.Float64bits(want[i].Score) ||
				got.Flags != want[i].Flags {
				t.Fatalf("client %d verdict %d diverged across the swap: got %+v want %+v",
					ci, i, got, want[i])
			}
		}
	}

	// The generation really changed: new provenance on the snapshot, and the
	// now-active generation's replay digest reproduces the canary digest the
	// gate approved — scoring continuity, proven end to end.
	snap := srv.snapshot()
	if snap.BundleHash != swapRes.Report.ActiveHash || snap.BundleHash == origHash || snap.Epoch != 2 {
		t.Fatalf("post-swap snapshot: hash=%s epoch=%d (orig %s)", snap.BundleHash, snap.Epoch, origHash)
	}
	replay, err := ReplayGeneration(srv.Manager().Active(), canary, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	if replay.HashHex() != swapRes.Report.CanaryDigest {
		t.Fatalf("post-swap replay digest %s != canary digest %s", replay.HashHex(), swapRes.Report.CanaryDigest)
	}
}

// TestSwapGateRejectionKeepsServing: a candidate that disagrees with the
// incumbent beyond the gate is refused, and the old generation keeps serving
// bit-identical verdicts as if nothing happened.
func TestSwapGateRejectionKeepsServing(t *testing.T) {
	testleak.Check(t)
	_, _, samples := lab(t)
	canary := samples[:300]
	srv, stateDir := startSwapServer(t, DefaultConfig(), canary)
	origHash := srv.Manager().Active().HashHex()
	hostile := writeHostileCandidate(t, t.TempDir())

	cl, err := Dial(srv.Addr(), len(samples[0].Raw))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Swap(hostile)
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if res.Ok {
		t.Fatalf("hostile candidate went live: %+v", res)
	}
	if !strings.Contains(res.Error, "canary gate") {
		t.Fatalf("rejection reason: %q", res.Error)
	}
	rep := res.Report
	if rep == nil || rep.Swapped || rep.RolledBack || rep.Agreement >= rep.Gate {
		t.Fatalf("rejection report: %+v", rep)
	}
	if res.Status.ActiveHash != origHash || res.Status.Epoch != 1 || res.Status.FallbackHash != "" {
		t.Fatalf("rejected swap moved the generation: %+v", res.Status)
	}
	// The refused candidate was never staged into the state directory: only
	// the ledger and the incumbent's generation file live there.
	entries, err := os.ReadDir(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("state dir holds %v, want only the ledger and the incumbent", names)
	}

	// Still serving, still bit-identical to offline.
	part := samples[:64]
	stats, verdicts, rejects := streamAll(t, srv.Addr(), part)
	if len(rejects) != 0 || stats.Scored != uint64(len(part)) {
		t.Fatalf("post-rejection serving broken: %+v rejects=%d", stats, len(rejects))
	}
	want := offlineVerdicts(t, part, DefaultConfig().SecureWindow)
	for i := range want {
		if math.Float64bits(verdicts[i].Score) != math.Float64bits(want[i].Score) || verdicts[i].Flags != want[i].Flags {
			t.Fatalf("verdict %d diverged after rejected swap", i)
		}
	}
}
