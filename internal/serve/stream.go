package serve

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"evax/internal/runner"
)

// Stream is the resilient serving client: one exactly-once stream of samples
// over a session, hardened for lossy networks. It layers four mechanisms over
// the bare Client:
//
//   - per-request deadlines: every network wait is bounded, so a dead peer
//     costs at most RequestTimeout before recovery begins;
//   - deterministic retry with exponential backoff: reconnect pacing is
//     derived from runner.DeriveSeed(Name, ID, attempt), never from entropy,
//     so two runs of the same schedule reconnect on the same cadence;
//   - a circuit breaker: after breakerThreshold consecutive connection
//     failures the stream stops hammering the server, sleeps
//     BreakerCooldown, and sends a single half-open probe per cooldown;
//   - reconnect-with-resume: samples are sequence-numbered and retained
//     until their verdict arrives; after a reconnect the stream re-attaches
//     to its server-side session and replays the unanswered tail in
//     sequence order. The server's dedup window absorbs replays — already
//     scored sequences are re-delivered from the verdict ring, in-flight
//     ones are marked for resend — so every accepted sample is scored
//     exactly once no matter how many times the connection dies.
//
// Heartbeats (ping/pong) keep an idle-but-healthy connection alive across
// the server's idle read deadline and double as a liveness probe: a
// connection that answers nothing for RequestTimeout is declared dead and
// replaced.
//
// The exactly-once contract requires the in-flight window to stay at or
// below the session dedup window, so the stream takes its window from the
// server's ack: min(maxWindow, Ack.Window).
//
// Not safe for concurrent use: one goroutine owns the whole Submit/Finish
// lifecycle.
type Stream struct {
	o       StreamOptions
	cl      *Client // nil while disconnected
	session uint64
	window  int // in-flight cap from the last ack
	seq     uint64
	instr   uint64
	pend    map[uint64]pendingSample
	got     []Verdict // indexed by seq
	stats   StreamStats

	attempt  int           // lifetime connection attempts, the jitter index
	fails    int           // consecutive connection failures
	idle     time.Duration // accumulated silent heartbeat windows
	pingTok  uint64
	lastErr  error
	finished bool
}

const (
	// maxWindow caps a stream's in-flight (unanswered) samples; a server
	// whose session dedup window is smaller lowers it through its ack.
	maxWindow = 128
	// breakerThreshold is the consecutive connection-failure count that
	// opens the circuit breaker.
	breakerThreshold = 5
	// maxFailures caps consecutive connection failures before the stream
	// gives up; a successful handshake resets the count.
	maxFailures = 32
)

// StreamOptions configures one Stream.
type StreamOptions struct {
	// Addr is the server's host:port.
	Addr string
	// RawDim is the per-sample raw counter dimensionality.
	RawDim int
	// Name seeds deterministic backoff jitter (with ID and the attempt
	// number) via runner.DeriveSeed.
	Name string
	// ID distinguishes streams that share a Name in the seed derivation.
	ID int
	// RequestTimeout bounds each TCP connect and is how long the oldest
	// unanswered sample may wait before the connection is declared dead
	// and replaced. Default 2s.
	RequestTimeout time.Duration
	// Heartbeat is the idle interval after which a ping is sent while
	// waiting for verdicts. Must be below both RequestTimeout and the
	// server's idle read deadline. Default 500ms.
	Heartbeat time.Duration
	// BackoffBase is the first reconnect delay; each consecutive failure
	// doubles it until the breaker opens. Default 2ms.
	BackoffBase time.Duration
	// BreakerCooldown is the sleep between half-open probes while the
	// breaker is open. Default 200ms.
	BreakerCooldown time.Duration
	// Interpose, when non-nil, wraps every freshly dialed conn before the
	// handshake — the hook netfault injectors plug into.
	Interpose func(net.Conn) net.Conn
}

func (o StreamOptions) withDefaults() StreamOptions {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 2 * time.Second
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 500 * time.Millisecond
	}
	if o.Heartbeat > o.RequestTimeout {
		o.Heartbeat = o.RequestTimeout
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 2 * time.Millisecond
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 200 * time.Millisecond
	}
	return o
}

// StreamStats counts the resilience machinery's work over a stream's
// lifetime.
type StreamStats struct {
	Submitted    uint64 // samples accepted by Submit
	Verdicts     uint64 // distinct sequences answered
	Dials        uint64 // successful connections (first + reconnects)
	Reconnects   uint64 // successful connections after the first
	DialFailures uint64 // failed dial/handshake attempts
	Retries      uint64 // sample frames re-sent (replays + overload resends)
	BreakerOpens uint64 // breaker open transitions
	Pings        uint64 // heartbeats sent
	Timeouts     uint64 // request-timeout expiries that forced a reconnect
	Overloads    uint64 // RejectOverload answers absorbed and retried
}

// StreamReport is the final accounting Finish returns.
type StreamReport struct {
	Stats StreamStats
	// Conn is the server's closing per-connection stats frame: Session
	// names the server-side session, and the Session* counts are lifetime
	// totals across every conn that carried it.
	Conn ConnStats
	// Verdicts holds one verdict per submitted sample, in sequence order.
	Verdicts []Verdict
}

// pendingSample is a submitted sample retained until its verdict arrives.
type pendingSample struct {
	h            SampleHeader
	instructions uint64
	cycles       uint64
	raw          []float64
}

// NewStream builds a stream; no network activity happens until the first
// Submit.
func NewStream(o StreamOptions) *Stream {
	return &Stream{o: o.withDefaults(), pend: make(map[uint64]pendingSample)}
}

// Stats returns a snapshot of the resilience counters.
func (s *Stream) Stats() StreamStats { return s.stats }

var errFinished = errors.New("serve: Finish already called")

// Submit streams one sample. The sequence number and instruction-timeline
// position are assigned internally (cumulative, in submission order, from
// zero). It blocks while the in-flight window is full, consuming verdicts;
// the raw slice is copied and may be reused by the caller.
func (s *Stream) Submit(instructions, cycles uint64, raw []float64) error {
	if s.finished {
		return errFinished
	}
	p := pendingSample{
		h:            SampleHeader{Seq: s.seq, InstrStart: s.instr},
		instructions: instructions,
		cycles:       cycles,
		raw:          append([]float64(nil), raw...),
	}
	s.pend[p.h.Seq] = p
	s.got = append(s.got, Verdict{})
	s.seq++
	s.instr += instructions
	s.stats.Submitted++
	for {
		fresh, err := s.ensureConn()
		if err != nil {
			return err
		}
		if fresh {
			break // the reconnect replay already sent p
		}
		if err := s.cl.Send(p.h, p.instructions, p.cycles, p.raw); err != nil {
			s.fail(err)
			continue
		}
		break
	}
	for len(s.pend) >= s.window {
		if err := s.pump(); err != nil {
			return err
		}
	}
	return nil
}

// Finish waits for every outstanding verdict, closes the stream with the
// bye handshake and returns the final accounting. The stream is unusable
// afterwards.
func (s *Stream) Finish() (StreamReport, error) {
	if s.finished {
		return StreamReport{}, errFinished
	}
	for len(s.pend) > 0 {
		if err := s.pump(); err != nil {
			return StreamReport{}, err
		}
	}
	var st ConnStats
	for {
		if _, err := s.ensureConn(); err != nil {
			return StreamReport{}, err
		}
		if err := s.cl.Bye(); err != nil {
			s.fail(err)
			continue
		}
		if err := s.cl.SetReadDeadline(time.Now().Add(s.o.RequestTimeout)); err != nil {
			s.fail(err)
			continue
		}
		cs, _, _, err := s.cl.DrainStats()
		if err != nil {
			s.fail(err)
			continue
		}
		st = cs
		break
	}
	s.cl.Close() //evaxlint:ignore droppederr the server already closed its side after the stats frame
	s.cl = nil
	s.finished = true
	return StreamReport{Stats: s.stats, Conn: st, Verdicts: s.got}, nil
}

// fail records err as the reason the current connection is abandoned and
// drops it; the next ensureConn reconnects and replays.
func (s *Stream) fail(err error) {
	s.lastErr = err
	if s.cl == nil {
		return
	}
	s.cl.Close() //evaxlint:ignore droppederr the conn is already being abandoned as failed
	s.cl = nil
}

// ensureConn returns with a live, fully-replayed connection (fresh reports
// whether it had to reconnect) or the permanent error that made it give up.
func (s *Stream) ensureConn() (fresh bool, err error) {
	for s.cl == nil {
		if s.fails >= maxFailures {
			return false, fmt.Errorf("serve: stream %d giving up after %d consecutive connection failures (last: %w)",
				s.o.ID, s.fails, s.lastErr)
		}
		switch {
		case s.fails >= breakerThreshold:
			// Breaker open: one half-open probe per cooldown. fails climbs
			// by one per attempt, so it equals the threshold once per open.
			if s.fails == breakerThreshold {
				s.stats.BreakerOpens++
			}
			time.Sleep(s.o.BreakerCooldown)
		case s.attempt > 0:
			time.Sleep(s.backoff())
		}
		s.attempt++
		if err := s.connect(); err != nil {
			if errors.Is(err, ErrRefused) {
				return false, err // bad version, bad dim, unknown session: retrying cannot heal it
			}
			s.lastErr = err
			s.fails++
			s.stats.DialFailures++
			continue
		}
		s.fails = 0
		s.stats.Dials++
		if s.stats.Dials > 1 {
			s.stats.Reconnects++
		}
		fresh = true
		if err := s.replay(); err != nil {
			s.fail(err)
		}
	}
	return fresh, nil
}

// backoff is the deterministic reconnect delay: BackoffBase doubled per
// consecutive failure (the breaker takes over before the exponent passes
// breakerThreshold-1), jittered into [d/2, d) by a seed derived from (Name,
// ID, attempt) — no entropy, so a replayed schedule reconnects on an
// identical cadence.
func (s *Stream) backoff() time.Duration {
	d := s.o.BackoffBase << s.fails
	seed := runner.DeriveSeed(s.o.Name, s.o.ID, int64(s.attempt))
	jit := time.Duration(uint64(seed) % uint64(d))
	return (d + jit) / 2
}

// connect dials and runs the session handshake: session 0 creates the
// server-side session, later attempts re-attach to it.
func (s *Stream) connect() error {
	cl, ack, err := dialSession(s.o.Addr, s.o.RequestTimeout, s.o.Interpose, s.o.RawDim, s.session)
	if err != nil {
		return err
	}
	s.session = ack.Session
	s.window = max(1, min(maxWindow, int(ack.Window)))
	s.cl = cl
	return nil
}

// replay re-sends every unanswered sample in sequence order on the fresh
// connection. The server's dedup window makes this idempotent: scored
// sequences are answered from the verdict ring without re-scoring.
func (s *Stream) replay() error {
	seqs := make([]uint64, 0, len(s.pend))
	for q := range s.pend {
		seqs = append(seqs, q)
	}
	slices.Sort(seqs)
	for _, q := range seqs {
		p := s.pend[q]
		if err := s.cl.Send(p.h, p.instructions, p.cycles, p.raw); err != nil {
			return err
		}
		s.stats.Retries++
	}
	return nil
}

// pump consumes server frames until one outstanding verdict is recorded,
// reconnecting (and replaying) through any failure on the way. Heartbeat
// pings go out after each silent Heartbeat window; RequestTimeout of total
// silence declares the connection dead.
func (s *Stream) pump() error {
	for {
		if _, err := s.ensureConn(); err != nil {
			return err
		}
		if err := s.cl.SetReadDeadline(time.Now().Add(s.o.Heartbeat)); err != nil {
			s.fail(err)
			continue
		}
		fr, err := s.cl.Recv()
		if err != nil {
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				s.fail(err)
				continue
			}
			// An idle window elapsed. A timeout mid-frame would leave the
			// reader desynced, but server frames are written as whole
			// flushes, so silence means a frame boundary; if a tear does
			// slip through, the decode checks below reject the garbage and
			// the reconnect replay recovers.
			s.idle += s.o.Heartbeat
			if s.idle >= s.o.RequestTimeout {
				s.idle = 0
				s.stats.Timeouts++
				s.fail(fmt.Errorf("serve: no answer within %v", s.o.RequestTimeout))
				continue
			}
			s.pingTok++
			if err := s.cl.Ping(s.pingTok); err != nil {
				s.fail(err)
				continue
			}
			s.stats.Pings++
			continue
		}
		s.idle = 0
		switch fr.Type {
		case FrameVerdict:
			v, err := DecodeVerdict(fr.Payload)
			if err != nil {
				s.fail(err)
				continue
			}
			if _, ok := s.pend[v.Seq]; !ok {
				continue // duplicate re-delivery of an already-recorded verdict
			}
			delete(s.pend, v.Seq)
			s.got[v.Seq] = v
			s.stats.Verdicts++
			return nil
		case FrameReject:
			r, err := DecodeReject(fr.Payload)
			if err != nil {
				s.fail(err)
				continue
			}
			if r.Code != RejectOverload {
				return fmt.Errorf("serve: server rejected seq %d (code %d): %s", r.Seq, r.Code, r.Msg)
			}
			// Admission control bounced it; the server rolled the dedup
			// slot back, so a paced resend is admitted fresh.
			s.stats.Overloads++
			p, ok := s.pend[r.Seq]
			if !ok {
				continue
			}
			time.Sleep(s.o.BackoffBase)
			if err := s.cl.Send(p.h, p.instructions, p.cycles, p.raw); err != nil {
				s.fail(err)
				continue
			}
			s.stats.Retries++
		case FramePong, FrameDrain:
			// Liveness confirmed, or a drain notice: in-flight verdicts
			// still arrive.
		case FrameStats:
			// The server finished this conn (drain complete); anything
			// still pending moves to a fresh conn via resume.
			s.fail(errors.New("serve: server closed the connection"))
		case FrameError:
			return fmt.Errorf("serve: server error: %s", fr.Payload)
		default:
			// Unknown frame: treat as stream desync and resynchronize
			// through a reconnect.
			s.fail(fmt.Errorf("serve: unexpected frame type 0x%02x", fr.Type))
		}
	}
}
