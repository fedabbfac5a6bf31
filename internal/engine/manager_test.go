package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"evax/internal/dataset"
	"evax/internal/defense"
	"evax/internal/faultinject"
	"evax/internal/safeio"
)

// writeCandidate saves a bundle file with the given seed and threshold —
// the unit the watch directory and admin swap frame deal in.
func writeCandidate(t *testing.T, path string, seed int64, threshold float64) {
	t.Helper()
	det, ds := testParts(t, seed)
	det.Threshold = threshold
	if err := defense.SaveBundle(path, det, ds); err != nil {
		t.Fatal(err)
	}
}

// managerFixture builds a persisted manager whose active generation flags
// no corpus row (sigmoid scores sit in (0,1), threshold 2), so verdict
// agreement against candidates is exact and deterministic: threshold 3
// agrees on every row, threshold 0 disagrees on every row.
func managerFixture(t *testing.T, dir string) (*Manager, *Generation, []dataset.Sample) {
	t.Helper()
	active := testGen(t, 1, 2, "")
	corpus := testCorpus(24, active.RawDim())
	mgr, err := NewManager(active, ManagerConfig{Dir: dir, Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	return mgr, active, corpus
}

// TestManagerPromoteAndRecover: the full happy path — canary passes, the
// candidate is durably staged, the swap lands, the default digest probe
// passes — and a fresh Open of the state directory recovers the exact
// active/fallback pair at the same epoch (the kill-after-swap crash shape).
func TestManagerPromoteAndRecover(t *testing.T) {
	dir := t.TempDir()
	mgr, active, corpus := managerFixture(t, dir)
	if !HasState(dir) {
		t.Fatal("NewManager with a Dir left no recoverable state")
	}

	cand := testGen(t, 2, 3, "") // same verdicts (none flagged), different bytes
	rep, err := mgr.Promote(cand)
	if err != nil {
		t.Fatalf("promote: %v (report %+v)", err, rep)
	}
	if !rep.Swapped || rep.RolledBack {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Agreement != 1 || rep.CanaryRows != len(corpus) || rep.CanaryDigest == "" {
		t.Fatalf("canary numbers: %+v", rep)
	}
	if rep.PrevHash != active.HashHex() || rep.ActiveHash != cand.HashHex() || rep.Epoch != 2 {
		t.Fatalf("lineage: %+v", rep)
	}
	if mgr.Active() != cand || mgr.Swapper().Fallback() != active {
		t.Fatal("in-memory slots do not match the report")
	}

	reopened, err := Open(ManagerConfig{Dir: dir, Corpus: corpus})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := reopened.Active(); got.Hash() != cand.Hash() {
		t.Fatalf("recovered active %s, want %s", got.HashHex(), cand.HashHex())
	}
	if fb := reopened.Swapper().Fallback(); fb == nil || fb.Hash() != active.Hash() {
		t.Fatal("recovered manager lost the fallback generation")
	}
	if reopened.Swapper().Epoch() != 2 {
		t.Fatalf("recovered epoch %d, want 2", reopened.Swapper().Epoch())
	}
}

// TestManagerCanaryGateRejects: a candidate that flips every verdict never
// goes live — the active generation, epoch, and on-disk ledger are all
// untouched, and the report carries the agreement numbers.
func TestManagerCanaryGateRejects(t *testing.T) {
	dir := t.TempDir()
	mgr, active, corpus := managerFixture(t, dir)

	hostile := testGen(t, 3, 0, "") // flags everything: agreement 0
	rep, err := mgr.Promote(hostile)
	if !errors.Is(err, ErrCanaryRejected) {
		t.Fatalf("err = %v, want ErrCanaryRejected", err)
	}
	if rep.Swapped || rep.RolledBack || rep.Agreement != 0 || rep.CanaryRows != len(corpus) {
		t.Fatalf("report: %+v", rep)
	}
	if rep.ActiveHash != active.HashHex() || mgr.Active() != active || mgr.Swapper().Epoch() != 1 {
		t.Fatal("rejected candidate moved the active generation")
	}

	reopened, err := Open(ManagerConfig{Dir: dir})
	if err != nil || reopened.Active().Hash() != active.Hash() {
		t.Fatalf("ledger moved for a rejected candidate: %v", err)
	}
	// The staged files never include the rejected candidate.
	if _, err := os.Stat(filepath.Join(dir, genFileName(hostile))); !os.IsNotExist(err) {
		t.Fatalf("rejected candidate was staged: %v", err)
	}
}

// TestManagerProbeFailureRollsBack: the candidate passes the gate and goes
// live, but the post-swap health probe fails — the manager rolls back to the
// incumbent and persists the restored pair, so a crash right after also
// recovers the incumbent.
func TestManagerProbeFailureRollsBack(t *testing.T) {
	dir := t.TempDir()
	active := testGen(t, 1, 2, "")
	corpus := testCorpus(24, active.RawDim())
	probeErr := errors.New("latency regression")
	probed := 0
	mgr, err := NewManager(active, ManagerConfig{
		Dir:    dir,
		Corpus: corpus,
		Probe: func(g *Generation) error {
			probed++
			return fmt.Errorf("probe: %w", probeErr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	cand := testGen(t, 2, 3, "")
	rep, perr := mgr.Promote(cand)
	if !errors.Is(perr, ErrProbeFailed) || !errors.Is(perr, probeErr) {
		t.Fatalf("err = %v, want ErrProbeFailed wrapping the probe cause", perr)
	}
	if probed != 1 {
		t.Fatalf("probe ran %d times, want 1", probed)
	}
	if rep.Swapped || !rep.RolledBack {
		t.Fatalf("report: %+v", rep)
	}
	if mgr.Active() != active || rep.ActiveHash != active.HashHex() {
		t.Fatal("rollback did not restore the incumbent")
	}

	reopened, err := Open(ManagerConfig{Dir: dir})
	if err != nil || reopened.Active().Hash() != active.Hash() {
		t.Fatalf("crash after rollback does not recover the incumbent: %v", err)
	}
}

// TestManagerIdenticalCandidate: re-promoting the active bundle is a no-op,
// not an error — the watch loop sees the same file every scan.
func TestManagerIdenticalCandidate(t *testing.T) {
	mgr, active, _ := managerFixture(t, "")
	same, err := New(active.Detector(), active.Dataset(), "")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mgr.Promote(same)
	if err != nil || rep.Swapped || rep.Reason == "" {
		t.Fatalf("identical candidate: rep=%+v err=%v", rep, err)
	}
	if mgr.Swapper().Epoch() != 1 {
		t.Fatal("identical candidate bumped the epoch")
	}
}

// TestManagerRejectsRaggedCanaryRow: a malformed golden corpus fails closed
// before any swap.
func TestManagerRejectsRaggedCanaryRow(t *testing.T) {
	active := testGen(t, 1, 2, "")
	corpus := testCorpus(8, active.RawDim())
	corpus[5].Raw = corpus[5].Raw[:3]
	mgr, err := NewManager(active, ManagerConfig{Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Promote(testGen(t, 2, 3, "")); err == nil {
		t.Fatal("ragged canary row accepted")
	}
	if mgr.Active() != active {
		t.Fatal("ragged canary moved the active generation")
	}
}

// TestManagerTornCandidateStaging: the simulated power cut lands on the
// candidate's staging write — the promotion fails before the swap, the
// incumbent keeps serving, and the state directory still recovers it.
func TestManagerTornCandidateStaging(t *testing.T) {
	dir := t.TempDir()
	mgr, active, _ := managerFixture(t, dir)

	cand := testGen(t, 2, 3, "")
	restore := safeio.SetHook(faultinject.TornPathHook(genFileName(cand), 0))
	rep, err := mgr.Promote(cand)
	restore()
	if !errors.Is(err, safeio.ErrTorn) {
		t.Fatalf("torn staging err = %v, want ErrTorn", err)
	}
	if rep.Swapped || mgr.Active() != active || mgr.Swapper().Epoch() != 1 {
		t.Fatalf("torn staging changed the serving state: %+v", rep)
	}

	reopened, oerr := Open(ManagerConfig{Dir: dir})
	if oerr != nil || reopened.Active().Hash() != active.Hash() {
		t.Fatalf("recovery after torn staging: %v", oerr)
	}

	// The same candidate promotes cleanly once the fault clears.
	if rep, err := mgr.Promote(cand); err != nil || !rep.Swapped {
		t.Fatalf("retry after torn staging: rep=%+v err=%v", rep, err)
	}
}

// TestManagerTornLedgerWrite: the power cut lands between the swap and the
// ledger replacement (kill-mid-swap). The in-memory swap is undone so memory
// and disk agree, and recovery yields the incumbent.
func TestManagerTornLedgerWrite(t *testing.T) {
	dir := t.TempDir()
	mgr, active, _ := managerFixture(t, dir)

	cand := testGen(t, 2, 3, "")
	restore := safeio.SetHook(faultinject.TornPathHook(stateFileName, 0))
	rep, err := mgr.Promote(cand)
	restore()
	if !errors.Is(err, safeio.ErrTorn) {
		t.Fatalf("torn ledger err = %v, want ErrTorn", err)
	}
	if rep.Swapped {
		t.Fatalf("report claims a swap that was not persisted: %+v", rep)
	}
	if mgr.Active() != active {
		t.Fatal("in-memory active diverged from the on-disk ledger")
	}

	reopened, oerr := Open(ManagerConfig{Dir: dir})
	if oerr != nil || reopened.Active().Hash() != active.Hash() {
		t.Fatalf("recovery after torn ledger: %v", oerr)
	}
}

// TestOpenRecoversFallbackWhenActiveBroken: a torn active slot degrades to
// the fallback generation — the same decision a live health probe makes,
// taken at recovery time. With both slots broken, Open fails and the staged
// files also refuse to load as plain bundles, so callers degrade to the
// always-secure flagger.
func TestOpenRecoversFallbackWhenActiveBroken(t *testing.T) {
	dir := t.TempDir()
	mgr, active, _ := managerFixture(t, dir)
	cand := testGen(t, 2, 3, "")
	if _, err := mgr.Promote(cand); err != nil {
		t.Fatal(err)
	}

	// Tear the active slot's staged file (partial write: truncated JSON).
	activeFile := filepath.Join(dir, genFileName(cand))
	if err := safeio.WriteFile(activeFile, []byte(`{"detector":`), 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(ManagerConfig{Dir: dir})
	if err != nil {
		t.Fatalf("open with broken active slot: %v", err)
	}
	if reopened.Active().Hash() != active.Hash() {
		t.Fatalf("recovered %s, want fallback %s", reopened.Active().HashHex(), active.HashHex())
	}
	if reopened.Swapper().Fallback() != nil {
		t.Fatal("broken active slot must not come back as a rollback target")
	}

	// Now break the fallback slot too: recovery has nothing left.
	fallbackFile := filepath.Join(dir, genFileName(active))
	if err := safeio.WriteFile(fallbackFile, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ManagerConfig{Dir: dir}); err == nil {
		t.Fatal("open recovered a manager from two broken slots")
	}

	// The staged generation files are plain bundles; with both torn, the
	// flagger loader degrades to always-secure rather than refusing to run.
	for _, path := range []string{activeFile, fallbackFile} {
		fl, err := LoadFlaggerOrSecure(path)
		if err == nil || !isAlwaysOn(fl) {
			t.Fatalf("%s: flagger %T err %v, want AlwaysOn with cause", path, fl, err)
		}
	}
}

// TestManagerManualRollback: the admin-frame escape hatch restores the
// fallback and persists the restored pair.
func TestManagerManualRollback(t *testing.T) {
	dir := t.TempDir()
	mgr, active, _ := managerFixture(t, dir)
	cand := testGen(t, 2, 3, "")
	if _, err := mgr.Promote(cand); err != nil {
		t.Fatal(err)
	}

	rep, err := mgr.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RolledBack || rep.ActiveHash != active.HashHex() || mgr.Active().Hash() != active.Hash() {
		t.Fatalf("manual rollback: %+v", rep)
	}
	reopened, err := Open(ManagerConfig{Dir: dir})
	if err != nil || reopened.Active().Hash() != active.Hash() {
		t.Fatalf("rollback not persisted: %v", err)
	}

	// With no fallback (fresh manager), rollback reports the error.
	fresh, err := NewManager(testGen(t, 9, 2, ""), ManagerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Rollback(); !errors.Is(err, ErrNoFallback) {
		t.Fatalf("rollback with no fallback: %v", err)
	}
}

// TestManagerRescan: the intake scan is deterministic (sorted names), skips
// non-bundles, reports unreadable candidates without aborting, and decides
// every content hash exactly once — including under a rename.
func TestManagerRescan(t *testing.T) {
	intake := t.TempDir()
	mgr, _, _ := managerFixture(t, "")

	writeCandidate(t, filepath.Join(intake, "b_cand.json"), 2, 3)
	if err := safeio.WriteFile(filepath.Join(intake, "a_garbage.json"), []byte("{oops"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := safeio.WriteFile(filepath.Join(intake, "notes.txt"), []byte("not a bundle"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(intake, "sub.json"), 0o755); err != nil {
		t.Fatal(err)
	}

	reports, err := mgr.Rescan(intake)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2: %+v", len(reports), reports)
	}
	if !strings.HasSuffix(reports[0].CandidatePath, "a_garbage.json") || reports[0].Reason == "" {
		t.Fatalf("report order/garbage handling: %+v", reports[0])
	}
	if !strings.HasSuffix(reports[1].CandidatePath, "b_cand.json") || !reports[1].Swapped {
		t.Fatalf("candidate report: %+v", reports[1])
	}

	// Second scan: everything already decided, nothing re-litigated.
	reports, err = mgr.Rescan(intake)
	if err != nil || len(reports) != 0 {
		t.Fatalf("rescan re-decided candidates: %+v (%v)", reports, err)
	}

	// The same content under a new name is still the same decision.
	data, err := os.ReadFile(filepath.Join(intake, "b_cand.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := safeio.WriteFile(filepath.Join(intake, "c_copy.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	reports, err = mgr.Rescan(intake)
	if err != nil || len(reports) != 0 {
		t.Fatalf("renamed copy re-promoted: %+v (%v)", reports, err)
	}

	epoch := mgr.Swapper().Epoch()
	if epoch != 2 {
		t.Fatalf("epoch %d after one real promotion, want 2", epoch)
	}
}
