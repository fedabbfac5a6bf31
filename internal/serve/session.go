package serve

import (
	"fmt"
	"sync"
	"time"
)

// seqState tracks one sequence number through the exactly-once pipeline.
type seqState uint8

const (
	seqUnseen   seqState = iota // slot empty or recycled
	seqInflight                 // admitted to the shard, verdict pending
	seqScored                   // verdict computed and stored in the slot
)

// sessEntry is one dedup-window slot: the state of sequence number seq plus,
// once scored, the stored verdict so reconnecting clients can be re-answered
// without re-scoring.
type sessEntry struct {
	seq    uint64
	state  seqState
	resend bool // a duplicate arrived while inflight: re-deliver at flush
	score  float64
	flags  uint8
}

// session is the server half of the exactly-once contract. It outlives any
// single connection: a client that loses its conn resumes the session on a
// fresh one and replays unacknowledged samples; the dedup ring guarantees
// each sequence number is scored at most once no matter how many times it is
// retransmitted, and stored verdicts answer replays of already-scored
// samples.
//
// A session is pinned to one shard forever (conns attaching to it are
// re-pinned), so its secure-window state keeps the single-writer discipline
// the per-conn field had, and per-session scoring order is the admission
// order regardless of reconnects.
//
// The mutex guards everything below it: the attached conn's reader admits
// and dedups while the shard batcher stores verdicts, and a takeover can
// swap attached from a third goroutine.
type session struct {
	id    uint64
	shard *shard

	mu       sync.Mutex
	attached *conn // nil while orphaned
	ring     []sessEntry
	window   uint64
	high     uint64 // highest admitted seq (0 before the first)
	admitted bool   // distinguishes "no samples yet" from high==0

	// secureUntil is the mitigation-window horizon, session-scoped so a
	// reconnect cannot reset an engaged window.
	secureUntil uint64

	// Lifetime totals across every attachment, reported in the final conn
	// stats frame of whichever conn is attached when asked.
	accepted, rejected, scored, flagged uint64
	dupes, resent, shed                 uint64

	// lastDetach is when the session last lost its conn; orphans older than
	// Config.SessionIdle are reaped lazily.
	lastDetach time.Time
}

// admitVerdict classifies one incoming sequence number against the dedup
// window. Exactly one of the results is returned:
//
//	admitFresh  — never seen: caller admits it to the shard
//	admitDup    — inflight duplicate: dropped, verdict will be (re)delivered
//	admitReplay — scored duplicate: caller re-delivers the stored verdict
//	admitStale  — fell out of the dedup window: caller rejects RejectStale
type admitVerdict uint8

const (
	admitFresh admitVerdict = iota
	admitDup
	admitReplay
	admitStale
)

// admit runs the dedup protocol for seq. On admitReplay the stored verdict is
// returned. Caller must hold s.mu.
func (s *session) admit(seq uint64) (admitVerdict, Verdict) {
	if s.admitted && s.high >= s.window && seq <= s.high-s.window {
		return admitStale, Verdict{}
	}
	slot := &s.ring[seq%s.window]
	if slot.state != seqUnseen && slot.seq == seq {
		if slot.state == seqInflight {
			slot.resend = true
			return admitDup, Verdict{}
		}
		return admitReplay, Verdict{Seq: seq, Score: slot.score, Flags: slot.flags}
	}
	// Fresh (or overwriting a slot whose tenant aged out of the window).
	*slot = sessEntry{seq: seq, state: seqInflight}
	if !s.admitted || seq > s.high {
		s.high = seq
		s.admitted = true
	}
	return admitFresh, Verdict{}
}

// admitUndo is the ring state a fresh admit of one seq may overwrite: the
// seq's slot and the high-water mark.
type admitUndo struct {
	slot     sessEntry
	high     uint64
	admitted bool
}

// undoFor saves what admitting seq would overwrite. Caller must hold s.mu.
func (s *session) undoFor(seq uint64) admitUndo {
	return admitUndo{slot: s.ring[seq%s.window], high: s.high, admitted: s.admitted}
}

// rollback undoes a fresh admit of seq that the shard queue refused, so seq
// counts as never seen: it no longer moves the stale threshold or the resume
// ack's High, and the slot it overwrote serves its old tenant again. Caller
// must hold s.mu from undoFor through admit to here.
func (s *session) rollback(seq uint64, u admitUndo) {
	s.ring[seq%s.window] = u.slot
	s.high = u.high
	s.admitted = u.admitted
}

// store records a computed verdict in the dedup ring (if the slot still
// belongs to seq) and reports whether a duplicate asked for re-delivery.
// Caller must hold s.mu.
func (s *session) store(v Verdict) (resend bool) {
	slot := &s.ring[v.Seq%s.window]
	if slot.state == seqUnseen || slot.seq != v.Seq {
		return false // tenant aged out mid-flight; nothing to store
	}
	resend = slot.resend
	slot.state = seqScored
	slot.resend = false
	slot.score = v.Score
	slot.flags = v.Flags
	return resend
}

// attachSession resolves a resume frame to a session: id 0 creates a fresh
// session pinned to a shard round-robin; a non-zero id re-attaches (taking
// over from a half-dead conn if one is still attached). The caller's conn is
// re-pinned to the session's shard. Returns the ack to send.
func (s *Server) attachSession(c *conn, id uint64) (Ack, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reapSessionsLocked()
	var sess *session
	if id == 0 {
		sid := s.nextSess
		s.nextSess++
		sess = &session{
			id:     sid,
			shard:  s.shards[sid%uint64(len(s.shards))],
			ring:   make([]sessEntry, s.cfg.SessionWindow),
			window: uint64(s.cfg.SessionWindow),
		}
		s.sessions[sid] = sess
		s.met.sessions.Add(1)
	} else {
		sess = s.sessions[id]
		if sess == nil {
			return Ack{}, fmt.Errorf("serve: unknown session %d (expired or never created)", id)
		}
		s.met.resumed.Add(1)
	}
	sess.mu.Lock()
	sess.attached = c
	high := sess.high
	sess.mu.Unlock()
	c.sess = sess
	c.shard = sess.shard
	return Ack{Session: sess.id, Window: uint32(sess.window), High: high}, nil
}

// detachSession drops c from its session (if still the attached conn) and
// starts the orphan idle clock.
func (s *Server) detachSession(c *conn) {
	sess := c.sess
	if sess == nil {
		return
	}
	sess.mu.Lock()
	if sess.attached == c {
		sess.attached = nil
		sess.lastDetach = time.Now()
	}
	sess.mu.Unlock()
}

// reapSessionsLocked removes orphaned sessions idle past SessionIdle. Called
// with s.mu held, on the session attach path — sessions cost nothing while no
// one churns them, so lazy reaping is enough to bound the table.
func (s *Server) reapSessionsLocked() {
	if s.cfg.SessionIdle <= 0 {
		return
	}
	cutoff := time.Now().Add(-s.cfg.SessionIdle)
	for id, sess := range s.sessions {
		sess.mu.Lock()
		orphanedLongEnough := sess.attached == nil && sess.lastDetach.Before(cutoff) && !sess.lastDetach.IsZero()
		sess.mu.Unlock()
		if orphanedLongEnough {
			delete(s.sessions, id)
			s.met.sessionsReaped.Add(1)
		}
	}
}
