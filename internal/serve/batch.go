package serve

import (
	"time"

	"evax/internal/engine"
)

// request is one unit of shard work: an accepted sample awaiting scoring, or
// (when flush is non-nil) a control message asking the shard to flush its
// current batch and then close the channel — the barrier connection teardown
// and server drain use to guarantee every previously accepted sample has its
// verdict delivered.
type request struct {
	c            *conn
	sess         *session // non-nil for session-backed conns
	seq          uint64
	instrStart   uint64
	instructions uint64
	cycles       uint64
	raw          []float64
	enq          time.Time

	flush chan struct{}
}

// shard is one scoring lane. A connection is pinned to exactly one shard for
// its lifetime, so per-connection ordering and flag-window state never need
// cross-shard coordination: the shard's batcher goroutine is the only writer
// of every pinned connection's secureUntil.
//
// The ingest channel is the bounded queue of the admission-control contract:
// readers enqueue with a non-blocking send and reject on overflow, so memory
// per shard is bounded by QueueBound + MaxBatch rows no matter the offered
// load.
type shard struct {
	srv *Server
	ch  chan request

	// gen/sc cache the shard's resolution of the swapper's active
	// generation. Each flush compares gen against Swapper.Active (one atomic
	// load) and rebuilds sc only when a swap landed — so a batch always
	// scores entirely on the generation it started on, and the steady state
	// allocates nothing.
	gen *engine.Generation
	sc  *engine.Scorer

	// Batch staging scratch, sized to MaxBatch at construction: flush copies
	// the batch's freelist rows into the contiguous rawBuf and scores the
	// whole batch in one fused-kernel sweep.
	rawBuf   []float64
	instrBuf []uint64
	cycBuf   []uint64
	scoreBuf []float64
}

// run is the batcher loop: take a sample, top the batch up (collect), then
// flush it through the zero-alloc score path. Control messages flush
// immediately.
func (sh *shard) run() {
	defer sh.srv.shardWg.Done()
	cfg := sh.srv.cfg
	batch := make([]request, 0, cfg.MaxBatch)
	lats := make([]time.Duration, 0, cfg.MaxBatch)
	for {
		r, ok := <-sh.ch
		if !ok {
			sh.flush(&batch, &lats)
			return
		}
		if r.flush != nil {
			sh.flush(&batch, &lats)
			close(r.flush)
			continue
		}
		batch = append(batch, r)
		open := sh.collect(&batch, &lats)
		sh.flush(&batch, &lats)
		if !open {
			return
		}
	}
}

// collect tops the batch up with what is already queued and never waits for
// more: the shard is work-conserving, so a sample never waits while its shard
// is free, and a backlog that built up during the previous flush still fills
// the batch. A flush barrier flushes the batch and ends the collection.
// Returns false when the ingest channel closed.
//
//evaxlint:hotpath
func (sh *shard) collect(batch *[]request, lats *[]time.Duration) bool {
	maxBatch := sh.srv.cfg.MaxBatch
	for len(*batch) < maxBatch {
		var r request
		var ok bool
		select {
		case r, ok = <-sh.ch:
		default:
			return true
		}
		if !ok {
			return false
		}
		if r.flush != nil {
			sh.flush(batch, lats)
			close(r.flush)
			return true
		}
		// run sized the batch to MaxBatch and the loop stops there, so the
		// reslice stays within capacity.
		n := len(*batch)
		*batch = (*batch)[:n+1]
		(*batch)[n] = r
	}
	return true
}

// flush scores every request in the batch, applies per-connection flag-window
// state, and delivers verdict frames to the connections' writers. The score
// of a row depends only on the row (the scorer's scratch is fully overwritten
// per sample), so batching and shard assignment never change a verdict.
//
// This is the serve hot path: rows and verdict frames recycle through the
// server freelists and latencies are written into the preallocated lats
// slice, so steady-state flushing performs zero heap allocations per sample.
//
//evaxlint:hotpath
func (sh *shard) flush(batch *[]request, lats *[]time.Duration) {
	if len(*batch) == 0 {
		return
	}
	if hook := sh.srv.cfg.flushPause; hook != nil {
		hook()
	}
	// Resolve the generation for this whole batch: a swap landing mid-flush
	// waits for the next batch, so no sample scores on a mix of generations.
	if g := sh.srv.sw.Active(); g != sh.gen {
		sh.sc = g.NewScorer() //evaxlint:ignore hotpath per-swap scorer rebuild; steady state reuses the cached scorer
		sh.gen = g
	}
	// run sized lats with cap MaxBatch and the batch never exceeds MaxBatch,
	// so this reslice stays within capacity.
	n := len(*batch)
	ls := (*lats)[:n]
	// Stage the batch contiguously and score it in one kernel sweep: the
	// fused backends process several rows per pass over the compiled
	// per-feature constants.
	d := sh.srv.rawDim
	raw := sh.rawBuf[: n*d : n*d]
	instr := sh.instrBuf[:n]
	cycles := sh.cycBuf[:n]
	scores := sh.scoreBuf[:n]
	for i := range *batch {
		r := &(*batch)[i]
		copy(raw[i*d:(i+1)*d], r.raw)
		instr[i] = r.instructions
		cycles[i] = r.cycles
	}
	sh.sc.ScoreBatch(raw, instr, cycles, scores)
	thr := sh.sc.Threshold()
	for i := range *batch {
		r := &(*batch)[i]
		score := scores[i]
		windowEnd := r.instrStart + r.instructions
		var flags uint8
		flagged := score >= thr
		if flagged {
			flags |= VerdictFlagged
		}
		if sess := r.sess; sess != nil {
			// Session conns keep the mitigation window on the session, so a
			// reconnect cannot reset an engaged window, and store the verdict
			// in the dedup ring so replays are re-answered, never re-scored.
			// The delivery target is whichever conn is attached NOW — the
			// original may be gone — and a full queue sheds (the ring keeps
			// the verdict recoverable).
			sess.mu.Lock()
			if flagged {
				sess.secureUntil = windowEnd + sh.srv.cfg.SecureWindow
			}
			if flagged || windowEnd < sess.secureUntil {
				flags |= VerdictSecure
			}
			v := Verdict{Seq: r.seq, Score: score, Flags: flags}
			resend := sess.store(v)
			if resend {
				sess.resent++
			}
			sess.scored++
			if flagged {
				sess.flagged++
			}
			target := sess.attached
			sess.mu.Unlock()
			if resend {
				sh.srv.met.resent.Add(1)
			}
			if flagged {
				sh.srv.met.flagged.Add(1)
			}
			sh.srv.met.scored.Add(1)
			if target != nil && !target.deliverShed(AppendVerdict(sh.srv.getFrame(), v)) {
				sess.mu.Lock()
				sess.shed++
				sess.mu.Unlock()
			}
			ls[i] = time.Since(r.enq)
			sh.srv.putRow(r.raw)
			r.raw = nil
			continue
		}
		if flagged {
			// Engage (or extend) the mitigation window, exactly the
			// defense controller's gating rule.
			r.c.secureUntil = windowEnd + sh.srv.cfg.SecureWindow
		}
		if flagged || windowEnd < r.c.secureUntil {
			flags |= VerdictSecure
		}
		r.c.scored++
		if flagged {
			r.c.flagged++
			sh.srv.met.flagged.Add(1)
		}
		sh.srv.met.scored.Add(1)
		r.c.deliver(AppendVerdict(sh.srv.getFrame(), Verdict{Seq: r.seq, Score: score, Flags: flags}))
		ls[i] = time.Since(r.enq)
		sh.srv.putRow(r.raw)
		r.raw = nil
	}
	sh.srv.met.observeBatch(len(*batch), ls)
	*batch = (*batch)[:0]
	*lats = (*lats)[:0]
}
