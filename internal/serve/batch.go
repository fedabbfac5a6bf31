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

	// Batcher-goroutine state for the linger decision. gap is the running
	// estimate of the time between arrivals, folded from the enq stamps by
	// nextGap; last is the latest stamp seen. timer is the shard's one
	// linger timer, kept stopped with its channel drained between batches.
	gap   time.Duration
	last  time.Time
	timer *time.Timer
}

// gapWeightShift sets the arrival-gap EWMA's weight to 1/8.
const gapWeightShift = 3

// nextGap folds one arrival stamped enq into the inter-arrival estimate gap
// and returns the new estimate and latest stamp. The observed gap enq − last
// is clamped to [0, linger]: two connections can enqueue stamps out of order
// (a negative gap), and an idle spell longer than linger says no more about
// whether a batch would fill within linger than linger itself does. last only
// moves forward, so a late stamp is not counted twice.
func nextGap(gap time.Duration, last, enq time.Time, linger time.Duration) (time.Duration, time.Time) {
	obs := enq.Sub(last)
	if obs > 0 {
		last = enq
	}
	obs = min(max(obs, 0), max(linger, 0))
	return gap + (obs-gap)>>gapWeightShift, last
}

// shouldLinger reports whether a shard holding n samples waits (at most
// linger) for more: only when the batch has room and, at the estimated
// arrival gap, its free slots would fill within linger —
// (maxBatch − n) × gap ≤ linger, computed without overflow. A shard whose
// arrivals are slower flushes at once: waiting would add up to linger to
// every verdict and still not fill the batch. linger ≤ 0 never waits.
func shouldLinger(n, maxBatch int, gap, linger time.Duration) bool {
	if linger <= 0 || n >= maxBatch {
		return false
	}
	return gap <= linger/time.Duration(maxBatch-n)
}

// stopTimer stops t and drains a tick that fired before the stop, so the
// next Reset starts clean (the pre-Go 1.23 timer rules, which go.mod's
// language version selects; the drain is a no-op under the newer ones).
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		<-t.C
	}
}

// run is the batcher loop: take a sample, top the batch up (collect), then
// flush it through the zero-alloc score path. Control messages flush
// immediately.
func (sh *shard) run() {
	defer sh.srv.shardWg.Done()
	cfg := sh.srv.cfg
	// An idle or new shard counts as slow: its first sample scores at once.
	sh.gap = cfg.Linger
	sh.timer = time.NewTimer(time.Hour)
	stopTimer(sh.timer)
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
		sh.add(&batch, r)
		open := sh.collect(&batch, &lats)
		sh.flush(&batch, &lats)
		if !open {
			return
		}
	}
}

// add appends r to the batch (within the capacity run sized it to) and
// folds its arrival into the gap estimate.
func (sh *shard) add(batch *[]request, r request) {
	n := len(*batch)
	*batch = (*batch)[:n+1]
	(*batch)[n] = r
	sh.gap, sh.last = nextGap(sh.gap, sh.last, r.enq, sh.srv.cfg.Linger)
}

// collect tops the batch up: it drains whatever is already queued without
// blocking, then waits — at most Linger, on the shard's one timer — for the
// batch to fill only if shouldLinger says the arrival rate would fill it
// within Linger. A flush barrier flushes the batch and ends the collection.
// Returns false when the ingest channel closed.
//
//evaxlint:hotpath
func (sh *shard) collect(batch *[]request, lats *[]time.Duration) bool {
	cfg := &sh.srv.cfg
	waiting := false
	for len(*batch) < cfg.MaxBatch {
		var r request
		var ok bool
		if waiting {
			select {
			case r, ok = <-sh.ch:
			case <-sh.timer.C:
				return true
			}
		} else {
			select {
			case r, ok = <-sh.ch:
			default:
				if !shouldLinger(len(*batch), cfg.MaxBatch, sh.gap, cfg.Linger) {
					return true
				}
				sh.srv.met.lingered.Add(1)
				sh.timer.Reset(cfg.Linger)
				waiting = true
				continue
			}
		}
		if !ok || r.flush != nil {
			if waiting {
				stopTimer(sh.timer)
			}
			if !ok {
				return false
			}
			sh.flush(batch, lats)
			close(r.flush)
			return true
		}
		sh.add(batch, r)
	}
	if waiting {
		stopTimer(sh.timer)
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
			if target != nil {
				target.deliverShed(AppendVerdict(sh.srv.getFrame(), v))
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
