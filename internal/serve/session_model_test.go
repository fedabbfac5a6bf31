package serve

import (
	"math"
	"math/rand"
	"testing"
)

// refEntry is the reference model's record of one admitted sequence number.
type refEntry struct {
	scored  bool
	verdict Verdict
	dup     bool // a duplicate arrived while it was in flight
}

// refSession is the dedup ring's reference model: a map from every admitted
// sequence number to its state, with no ring, no slots and no eviction. It
// answers an admit the way the exactly-once contract says the ring must.
type refSession struct {
	window   uint64
	high     uint64
	admitted bool
	seqs     map[uint64]*refEntry
}

// stale reports whether seq is at or below high − window.
func (m *refSession) stale(seq uint64) bool {
	return m.admitted && seq+m.window <= m.high
}

// TestSessionRingMatchesModel runs seeded random interleavings of admit
// (fresh, duplicate, replay, stale), store, the overload rollback and window
// advance against refSession. It checks that every admit classifies as the
// model does, that no sequence number is admitted fresh twice unless an
// overload reject rolled it back, that a replay returns the stored verdict
// bit for bit, that store reports a resend exactly when a duplicate arrived
// in flight, and that admitStale happens exactly when seq ≤ high − window.
func TestSessionRingMatchesModel(t *testing.T) {
	const (
		seeds  = 200
		steps  = 2000
		window = 8
	)
	var seen [admitStale + 1]int
	rollbacks := 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := &session{ring: make([]sessEntry, window), window: window}
		m := &refSession{window: window, seqs: map[uint64]*refEntry{}}
		var pending []uint64 // admitted, not yet stored: the shard's FIFO
		fresh := map[uint64]int{}
		fail := func(step int, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d: "+format, append([]any{seed, step}, args...)...)
		}
		for step := 0; step < steps; step++ {
			if len(pending) > 0 && rng.Intn(3) == 0 {
				// The shard scores the oldest queued sample and stores it.
				seq := pending[0]
				pending = pending[1:]
				v := Verdict{Seq: seq, Score: rng.NormFloat64(), Flags: uint8(rng.Intn(4))}
				resend := s.store(v)
				if m.stale(seq) {
					// Out of the window: the slot may belong to a newer
					// sequence, and no admit will ask for seq again.
					continue
				}
				e := m.seqs[seq]
				if resend != e.dup {
					fail(step, "store(%d) resend %v, want %v", seq, resend, e.dup)
				}
				e.scored, e.verdict, e.dup = true, v, false
				continue
			}
			seq := pickSeq(rng, m)
			undo := s.undoFor(seq)
			got, stored := s.admit(seq)
			e := m.seqs[seq]
			var want admitVerdict
			switch {
			case m.stale(seq):
				want = admitStale
			case e == nil:
				want = admitFresh
			case !e.scored:
				want = admitDup
			default:
				want = admitReplay
			}
			if got != want {
				fail(step, "admit(%d) = %d, want %d (high %d)", seq, got, want, m.high)
			}
			seen[got]++
			switch got {
			case admitFresh:
				if fresh[seq]++; fresh[seq] > 1 {
					fail(step, "seq %d admitted fresh twice", seq)
				}
				if rng.Intn(8) == 0 {
					// Overload reject: the reader rolls the admit back under
					// the same lock hold, and the seq counts as never seen.
					s.rollback(seq, undo)
					fresh[seq]--
					rollbacks++
					continue
				}
				if !m.admitted || seq > m.high {
					m.high, m.admitted = seq, true
				}
				m.seqs[seq] = &refEntry{}
				pending = append(pending, seq)
			case admitDup:
				e.dup = true
			case admitReplay:
				if stored.Seq != seq || math.Float64bits(stored.Score) != math.Float64bits(e.verdict.Score) || stored.Flags != e.verdict.Flags {
					fail(step, "replay of %d returned %+v, want %+v", seq, stored, e.verdict)
				}
			}
		}
	}
	// Every outcome must be common, or the walk proves little about it.
	for v, n := range seen {
		if n < seeds {
			t.Errorf("admit outcome %d seen %d times in %d walks", v, n, seeds)
		}
	}
	if rollbacks < seeds {
		t.Errorf("%d overload rollbacks in %d walks", rollbacks, seeds)
	}
}

// pickSeq draws the next sequence number a client sends: the next in line,
// a jump that advances the window past queued samples, a resend of a known
// number (duplicate or replay), one below the window, or anything nearby.
func pickSeq(rng *rand.Rand, m *refSession) uint64 {
	next := uint64(0)
	if m.admitted {
		next = m.high + 1
	}
	switch rng.Intn(6) {
	case 0, 1:
		return next
	case 2:
		return next + uint64(rng.Intn(2*int(m.window)))
	case 3:
		if m.high > 0 {
			back := uint64(rng.Intn(int(m.window)))
			return m.high - min(back, m.high)
		}
		return next
	case 4:
		if m.high >= m.window {
			return m.high - m.window - uint64(rng.Intn(int(m.high-m.window)+1))
		}
		return next
	default:
		return uint64(rng.Intn(int(next + 2*m.window)))
	}
}
