package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"evax/internal/dataset"
	"evax/internal/safeio"
)

// Sentinel outcomes of the live-vaccination loop. Both are returned wrapped
// with the candidate's provenance; the SwapReport alongside carries the
// numbers.
var (
	// ErrCanaryRejected means the candidate's verdicts disagreed with the
	// active generation beyond the configured gate; it never went live.
	ErrCanaryRejected = errors.New("engine: canary gate rejected candidate")
	// ErrProbeFailed means the candidate went live but the post-swap health
	// probe failed, and the swapper rolled back to the previous generation.
	ErrProbeFailed = errors.New("engine: post-swap probe failed, rolled back")
)

// DefaultAgreementGate is the canary verdict-agreement floor applied when
// ManagerConfig leaves AgreementGate zero: a candidate may flip at most one
// verdict in two hundred against the active generation on the golden corpus.
const DefaultAgreementGate = 0.995

// stateFile is the recovery root inside a manager state directory: it names
// which staged generation file is active and which is the fallback. It is
// only ever replaced atomically (safeio), after the generation files it
// points at are durably on disk — so a crash at any instant leaves a state
// that recovers either the old generation pair or the new one, never a torn
// hybrid.
const stateFileName = "state.json"

// HasState reports whether dir holds a recoverable generation ledger — the
// "should I Open or NewManager?" probe daemons run at startup.
func HasState(dir string) bool {
	if dir == "" {
		return false
	}
	_, err := os.Stat(filepath.Join(dir, stateFileName))
	return err == nil
}

// state is the persisted swap ledger.
type state struct {
	Seq      uint64 `json:"seq"`
	Active   string `json:"active"`
	Fallback string `json:"fallback,omitempty"`
}

// ManagerConfig configures the live-vaccination loop.
type ManagerConfig struct {
	// Dir is the state directory for crash-safe staging ("" disables
	// persistence: swaps still happen, nothing survives a restart).
	Dir string
	// Backend selects the scoring kernel candidates are compiled for.
	Backend string
	// Corpus is the golden replay corpus candidates are canary-scored
	// against. Empty means swaps are ungated (trust the bundle validation
	// alone) — fine for tests, not recommended in production.
	Corpus []dataset.Sample
	// AgreementGate is the minimum verdict agreement (flag decisions, not
	// raw scores) a candidate must reach against the active generation on
	// the corpus. Zero means DefaultAgreementGate.
	AgreementGate float64
	// Probe, when set, replaces the default post-swap health probe (re-score
	// the corpus through the swapped-in generation and require its digest to
	// equal the canary digest). A non-nil error triggers automatic rollback.
	Probe func(g *Generation) error
}

func (c ManagerConfig) gate() float64 {
	if c.AgreementGate <= 0 {
		return DefaultAgreementGate
	}
	return c.AgreementGate
}

// SwapReport records one promotion attempt end to end. Hashes and digests
// are rendered as fixed-width hex strings: the report travels through JSON
// in admin frames, where raw uint64s would lose precision past 2^53.
type SwapReport struct {
	// CandidatePath is the bundle file the candidate came from ("" for
	// in-memory candidates).
	CandidatePath string `json:"candidate_path,omitempty"`
	// CandidateHash is the candidate bundle's FNV-1a content hash.
	CandidateHash string `json:"candidate_hash"`
	// PrevHash is the generation that was active when the attempt started —
	// the incumbent the canary compared against.
	PrevHash string `json:"prev_hash"`
	// ActiveHash is the generation left active when the attempt finished.
	ActiveHash string `json:"active_hash"`
	// Epoch is the swapper's activation sequence number after the attempt.
	Epoch uint64 `json:"epoch"`
	// CanaryRows is how many golden-corpus rows the canary scored (0 means
	// the swap was ungated).
	CanaryRows int `json:"canary_rows"`
	// Agreement is the fraction of canary rows where candidate and incumbent
	// flag decisions matched (1 when ungated).
	Agreement float64 `json:"agreement"`
	// Gate is the agreement floor the candidate had to clear.
	Gate float64 `json:"gate"`
	// CanaryDigest is the candidate's verdict digest over the corpus — the
	// value the post-swap replay digest must reproduce.
	CanaryDigest string `json:"canary_digest,omitempty"`
	// Swapped reports whether the candidate went (and stayed) live.
	Swapped bool `json:"swapped"`
	// RolledBack reports whether the candidate went live and was then rolled
	// back by a failed health probe.
	RolledBack bool `json:"rolled_back"`
	// Reason explains a rejected or rolled-back attempt.
	Reason string `json:"reason,omitempty"`
}

// Manager drives the generation state machine (staged → canaried → active →
// fallback → rolled-back; DESIGN.md §14) over a Swapper, with crash-safe
// persistence of the active/fallback pair under Dir.
type Manager struct {
	cfg ManagerConfig
	sw  *Swapper

	mu   sync.Mutex
	seen map[uint64]bool // candidate hashes already decided, for Rescan dedup
}

// NewManager adopts initial as the first active generation. With a state
// directory configured, the initial generation is staged and the ledger
// written before the manager is returned, so a crash immediately after
// startup already recovers to it.
func NewManager(initial *Generation, cfg ManagerConfig) (*Manager, error) {
	m := &Manager{
		cfg:  cfg,
		sw:   NewSwapper(initial),
		seen: map[uint64]bool{initial.Hash(): true},
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("engine: state dir: %w", err)
		}
		if err := m.persistLocked(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Open recovers a manager from a state directory written by a previous
// process. Recovery prefers the active slot; if its file is missing, torn,
// or fails validation, the fallback slot is tried — mirroring at runtime
// what Rollback does live. Only when both slots are unrecoverable does Open
// fail (callers then degrade to the secure AlwaysOn policy).
func Open(cfg ManagerConfig) (*Manager, error) {
	data, err := os.ReadFile(filepath.Join(cfg.Dir, stateFileName))
	if err != nil {
		return nil, fmt.Errorf("engine: open state: %w", err)
	}
	var st state
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("engine: open state: %w", err)
	}
	if st.Active == "" {
		return nil, fmt.Errorf("engine: open state: ledger names no active generation")
	}

	active, aerr := Load(filepath.Join(cfg.Dir, st.Active), cfg.Backend)
	var fallback *Generation
	if st.Fallback != "" {
		// The fallback slot is allowed to be broken as long as the active
		// one recovers; it just cannot serve as a rollback target.
		//evaxlint:ignore droppederr a torn fallback degrades to no-fallback, it does not fail recovery
		fallback, _ = Load(filepath.Join(cfg.Dir, st.Fallback), cfg.Backend)
	}
	if aerr != nil {
		if fallback == nil {
			return nil, fmt.Errorf("engine: open state: active slot unrecoverable (%v) and no valid fallback", aerr)
		}
		// Active slot is torn or invalid: recover on the fallback, exactly
		// the decision a live health probe would have made.
		active, fallback = fallback, nil
	}

	m := &Manager{
		cfg:  cfg,
		sw:   NewSwapper(active),
		seen: map[uint64]bool{active.Hash(): true},
	}
	m.sw.epoch.Store(st.Seq)
	if fallback != nil {
		m.sw.fallback = fallback
		m.seen[fallback.Hash()] = true
	}
	return m, nil
}

// Swapper exposes the active/fallback slots consumers resolve scorers from.
func (m *Manager) Swapper() *Swapper { return m.sw }

// Active returns the currently serving generation.
func (m *Manager) Active() *Generation { return m.sw.Active() }

// genFileName is the staged filename for a generation — content-addressed,
// so re-staging the same bundle is idempotent and two generations never
// collide.
func genFileName(g *Generation) string {
	return fmt.Sprintf("gen-%016x.json", g.Hash())
}

// persistLocked stages the current active/fallback generation files and then
// atomically replaces the ledger to point at them. Callers hold m.mu (or are
// inside construction, before the manager escapes).
func (m *Manager) persistLocked() error {
	if m.cfg.Dir == "" {
		return nil
	}
	st := state{Seq: m.sw.Epoch()}
	active := m.sw.Active()
	if err := safeio.WriteFile(filepath.Join(m.cfg.Dir, genFileName(active)), active.data, 0o644); err != nil {
		return fmt.Errorf("engine: staging active generation: %w", err)
	}
	st.Active = genFileName(active)
	if fb := m.sw.fallback; fb != nil {
		if err := safeio.WriteFile(filepath.Join(m.cfg.Dir, genFileName(fb)), fb.data, 0o644); err != nil {
			return fmt.Errorf("engine: staging fallback generation: %w", err)
		}
		st.Fallback = genFileName(fb)
	}
	data, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("engine: encoding state: %w", err)
	}
	if err := safeio.WriteFile(filepath.Join(m.cfg.Dir, stateFileName), data, 0o644); err != nil {
		return fmt.Errorf("engine: writing state: %w", err)
	}
	return nil
}

// verdicts scores the golden corpus through g sequentially (canary scoring
// is off the serving path) and returns the per-row flag decisions plus the
// verdict digest in corpus order.
func (m *Manager) verdicts(g *Generation) ([]bool, Digest, error) {
	for i, s := range m.cfg.Corpus {
		if len(s.Raw) != g.RawDim() {
			return nil, Digest{}, fmt.Errorf("engine: canary row %d has %d counters, generation wants %d",
				i, len(s.Raw), g.RawDim())
		}
	}
	sc := g.NewScorer()
	thr := sc.Threshold()
	flags := make([]bool, len(m.cfg.Corpus))
	d := NewDigest()
	for i := range m.cfg.Corpus {
		s := &m.cfg.Corpus[i]
		score := sc.Score(s.Raw, s.Instructions, s.Cycles)
		flags[i] = score >= thr
		d.Add(score, flags[i])
	}
	return flags, d, nil
}

// Promote runs one candidate through the full live-vaccination sequence:
// canary-score against the golden corpus, gate on verdict agreement with the
// incumbent, durably stage, atomically swap, then health-probe the swapped-in
// generation — rolling back (and persisting the restored pair) if the probe
// fails. The returned report is filled in every outcome; the error is nil
// only when the candidate ends up live.
func (m *Manager) Promote(cand *Generation) (SwapReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	incumbent := m.sw.Active()
	rep := SwapReport{
		CandidatePath: cand.Path(),
		CandidateHash: cand.HashHex(),
		PrevHash:      incumbent.HashHex(),
		ActiveHash:    incumbent.HashHex(),
		Epoch:         m.sw.Epoch(),
		Gate:          m.cfg.gate(),
		Agreement:     1,
	}
	m.seen[cand.Hash()] = true

	if cand.Hash() == incumbent.Hash() {
		rep.Reason = "candidate is identical to the active generation"
		return rep, nil
	}
	if cand.RawDim() != incumbent.RawDim() {
		// Connected clients agreed on the counter dimensionality at hello; a
		// generation that changes it can never swap in live.
		err := fmt.Errorf("engine: candidate streams %d raw counters, active generation streams %d",
			cand.RawDim(), incumbent.RawDim())
		rep.Reason = err.Error()
		return rep, err
	}

	// Canary: the candidate must reproduce the incumbent's flag decisions on
	// the golden corpus up to the configured gate.
	var canary Digest
	if len(m.cfg.Corpus) > 0 {
		candFlags, candDigest, err := m.verdicts(cand)
		if err != nil {
			rep.Reason = err.Error()
			return rep, err
		}
		actFlags, _, err := m.verdicts(incumbent)
		if err != nil {
			rep.Reason = err.Error()
			return rep, err
		}
		agree := 0
		for i := range candFlags {
			if candFlags[i] == actFlags[i] {
				agree++
			}
		}
		canary = candDigest
		rep.CanaryRows = len(candFlags)
		rep.Agreement = float64(agree) / float64(len(candFlags))
		rep.CanaryDigest = fmt.Sprintf("%016x", canary.Sum())
		if rep.Agreement < rep.Gate {
			err := fmt.Errorf("%w: agreement %.6f < gate %.6f over %d rows",
				ErrCanaryRejected, rep.Agreement, rep.Gate, rep.CanaryRows)
			rep.Reason = err.Error()
			return rep, err
		}
	}

	// Durably stage the candidate before it serves: crash after the swap
	// must recover the new generation, crash before must recover the old.
	if m.cfg.Dir != "" {
		if err := safeio.WriteFile(filepath.Join(m.cfg.Dir, genFileName(cand)), cand.data, 0o644); err != nil {
			err = fmt.Errorf("engine: staging candidate: %w", err)
			rep.Reason = err.Error()
			return rep, err
		}
	}

	m.sw.Swap(cand)
	if err := m.persistLocked(); err != nil {
		// The ledger still names the old pair: undo the in-memory swap so
		// memory and disk agree.
		//evaxlint:ignore droppederr fallback is non-nil right after a swap
		m.sw.Rollback()
		rep.Epoch = m.sw.Epoch()
		rep.Reason = err.Error()
		return rep, err
	}

	// Post-swap health probe: by default the swapped-in generation must
	// reproduce the canary digest, proving the slot that is now serving
	// scores exactly like the candidate the gate approved.
	perr := m.probeLocked(canary)
	if perr != nil {
		//evaxlint:ignore droppederr fallback is non-nil right after a swap
		m.sw.Rollback()
		if err := m.persistLocked(); err != nil {
			perr = errors.Join(perr, err)
		}
		rep.Epoch = m.sw.Epoch()
		rep.ActiveHash = m.sw.Active().HashHex()
		rep.RolledBack = true
		err := fmt.Errorf("%w: %w", ErrProbeFailed, perr)
		rep.Reason = err.Error()
		return rep, err
	}

	rep.Epoch = m.sw.Epoch()
	rep.ActiveHash = cand.HashHex()
	rep.Swapped = true
	return rep, nil
}

// probeLocked runs the post-swap health probe against the now-active
// generation.
func (m *Manager) probeLocked(canary Digest) error {
	g := m.sw.Active()
	if m.cfg.Probe != nil {
		return m.cfg.Probe(g)
	}
	if len(m.cfg.Corpus) == 0 {
		return nil
	}
	_, d, err := m.verdicts(g)
	if err != nil {
		return err
	}
	if d.Sum() != canary.Sum() {
		return fmt.Errorf("engine: post-swap digest %016x != canary digest %016x", d.Sum(), canary.Sum())
	}
	return nil
}

// PromoteFile loads a candidate bundle from disk and promotes it.
func (m *Manager) PromoteFile(path string) (SwapReport, error) {
	cand, err := Load(path, m.cfg.Backend)
	if err != nil {
		m.mu.Lock()
		active := m.sw.Active().HashHex()
		epoch := m.sw.Epoch()
		m.mu.Unlock()
		return SwapReport{
			CandidatePath: path,
			PrevHash:      active,
			ActiveHash:    active,
			Epoch:         epoch,
			Gate:          m.cfg.gate(),
			Reason:        err.Error(),
		}, err
	}
	return m.Promote(cand)
}

// Rollback re-activates the fallback generation on operator demand (the
// admin-frame escape hatch) and persists the restored pair.
func (m *Manager) Rollback() (SwapReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	prev := m.sw.Active()
	rep := SwapReport{
		PrevHash:   prev.HashHex(),
		ActiveHash: prev.HashHex(),
		Epoch:      m.sw.Epoch(),
		Gate:       m.cfg.gate(),
		Agreement:  1,
	}
	restored, err := m.sw.Rollback()
	if err != nil {
		rep.Reason = err.Error()
		return rep, err
	}
	rep.Epoch = m.sw.Epoch()
	rep.ActiveHash = restored.HashHex()
	rep.CandidateHash = restored.HashHex()
	rep.RolledBack = true
	rep.Swapped = true
	if err := m.persistLocked(); err != nil {
		rep.Reason = err.Error()
		return rep, err
	}
	return rep, nil
}

// Rescan walks a candidate intake directory deterministically (sorted file
// names) and promotes every not-yet-seen bundle, in order. A candidate's
// content hash is marked seen whether or not it goes live, so a rejected or
// torn bundle is decided once, not re-litigated every scan. Unreadable
// files are reported, not fatal: the scan continues.
func (m *Manager) Rescan(dir string) ([]SwapReport, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("engine: rescan: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)

	var reports []SwapReport
	for _, name := range names {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			reports = append(reports, SwapReport{
				CandidatePath: path,
				Gate:          m.cfg.gate(),
				Reason:        err.Error(),
			})
			continue
		}
		hash := safeio.Checksum(data)
		m.mu.Lock()
		decided := m.seen[hash]
		m.seen[hash] = true
		m.mu.Unlock()
		if decided {
			continue
		}
		cand, err := FromBytes(data, path, m.cfg.Backend)
		if err != nil {
			reports = append(reports, SwapReport{
				CandidatePath: path,
				CandidateHash: fmt.Sprintf("%016x", hash),
				Gate:          m.cfg.gate(),
				Reason:        err.Error(),
			})
			continue
		}
		//evaxlint:ignore droppederr the report's Reason carries the outcome either way
		rep, _ := m.Promote(cand)
		reports = append(reports, rep)
	}
	return reports, nil
}
