// Package client is the resilient serving client: a dial loop hardened for
// lossy networks. It layers four mechanisms over the bare serve.Client:
//
//   - per-request deadlines: every network wait is bounded, so a dead peer
//     costs at most RequestTimeout before recovery begins;
//   - deterministic retry with exponential backoff: reconnect pacing is
//     derived from runner.DeriveSeed(Name, ID, attempt), never from entropy,
//     so two runs of the same schedule reconnect on the same cadence;
//   - a circuit breaker: after BreakerThreshold consecutive connection
//     failures the client stops hammering the server, sleeps
//     BreakerCooldown, and sends a single half-open probe per cooldown;
//   - reconnect-with-resume: samples are sequence-numbered and retained
//     until their verdict arrives; after a reconnect the client re-attaches
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
// The exactly-once contract requires the in-flight window (Options.Window)
// to stay at or below the session dedup window the server advertises in its
// FrameAck; the default is far below DefaultConfig().SessionWindow.
package client

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"time"

	"evax/internal/runner"
	"evax/internal/serve"
)

// Options configures one resilient client.
type Options struct {
	// Addr is the server's host:port.
	Addr string
	// RawDim is the per-sample raw counter dimensionality.
	RawDim int
	// Name seeds deterministic backoff jitter (with ID and the attempt
	// number) via runner.DeriveSeed.
	Name string
	// ID distinguishes clients of one fleet in the seed derivation.
	ID int
	// DialTimeout bounds each TCP connect. Default 5s.
	DialTimeout time.Duration
	// RequestTimeout is how long the oldest unanswered sample may wait
	// before the connection is declared dead and replaced. Default 2s.
	RequestTimeout time.Duration
	// Heartbeat is the idle interval after which a ping is sent while
	// waiting for verdicts. Must be below both RequestTimeout and the
	// server's idle read deadline. Default 500ms.
	Heartbeat time.Duration
	// BackoffBase and BackoffMax bound the exponential reconnect backoff.
	// Defaults 2ms and 250ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold is the consecutive connection-failure count that
	// opens the circuit breaker. Default 5.
	BreakerThreshold int
	// BreakerCooldown is the sleep between half-open probes while the
	// breaker is open. Default 200ms.
	BreakerCooldown time.Duration
	// MaxFailures caps consecutive connection failures before the client
	// gives up; successful handshakes reset the count. Default 32.
	MaxFailures int
	// Window bounds the in-flight (unanswered) sample count; Submit blocks
	// on verdicts once it is reached. Must not exceed the server's session
	// dedup window or old replays draw RejectStale. Default 128.
	Window int
	// Interpose, when non-nil, wraps every freshly dialed conn before the
	// handshake — the hook netfault injectors plug into.
	Interpose func(net.Conn) net.Conn
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
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
	if o.BackoffMax < o.BackoffBase {
		o.BackoffMax = 250 * time.Millisecond
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 200 * time.Millisecond
	}
	if o.MaxFailures <= 0 {
		o.MaxFailures = 32
	}
	if o.Window <= 0 {
		o.Window = 128
	}
	return o
}

// Stats counts the resilience machinery's work over the client's lifetime.
type Stats struct {
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

// Report is the final accounting Finish returns.
type Report struct {
	// Session is the server-side session id this client's samples flowed
	// through.
	Session uint64
	Stats   Stats
	// Conn is the server's closing per-connection stats frame; its
	// Session* fields are lifetime totals across every conn that carried
	// the session.
	Conn serve.ConnStats
	// Verdicts holds one verdict per submitted sample, in sequence order.
	Verdicts []serve.Verdict
}

// pending is a submitted sample retained until its verdict arrives.
type pending struct {
	h            serve.SampleHeader
	instructions uint64
	cycles       uint64
	raw          []float64
}

// Client streams samples to one server with exactly-once verdict
// accounting. Not safe for concurrent use: one goroutine owns the whole
// submit/finish lifecycle.
type Client struct {
	o       Options
	cl      *serve.Client // nil while disconnected
	session uint64
	seq     uint64
	instr   uint64
	pend    map[uint64]pending
	got     map[uint64]serve.Verdict
	stats   Stats

	attempt     int // lifetime connection attempts, the jitter index
	fails       int // consecutive connection failures
	breakerOpen bool
	idle        time.Duration // accumulated silent heartbeat windows
	pingTok     uint64
	lastErr     error
	finished    bool
}

// New builds a client; no network activity happens until the first Submit.
func New(o Options) *Client {
	return &Client{
		o:    o.withDefaults(),
		pend: make(map[uint64]pending),
		got:  make(map[uint64]serve.Verdict),
	}
}

// Session returns the server-side session id, 0 before the first connect.
func (c *Client) Session() uint64 { return c.session }

// Stats returns a snapshot of the resilience counters.
func (c *Client) Stats() Stats { return c.stats }

var errFinished = errors.New("client: Finish already called")

// Submit streams one sample. The sequence number and instruction-timeline
// position are assigned internally (cumulative, in submission order). It
// blocks while the in-flight window is full, consuming verdicts; the raw
// slice is copied and may be reused by the caller.
func (c *Client) Submit(instructions, cycles uint64, raw []float64) error {
	if c.finished {
		return errFinished
	}
	p := pending{
		h:            serve.SampleHeader{Seq: c.seq, InstrStart: c.instr},
		instructions: instructions,
		cycles:       cycles,
		raw:          append([]float64(nil), raw...),
	}
	c.pend[p.h.Seq] = p
	c.seq++
	c.instr += instructions
	c.stats.Submitted++
	for {
		fresh, err := c.ensureConn()
		if err != nil {
			return err
		}
		if fresh {
			break // the reconnect replay already sent p
		}
		if err := c.cl.Send(p.h, p.instructions, p.cycles, p.raw); err != nil {
			c.lastErr = err
			c.drop()
			continue
		}
		break
	}
	for len(c.pend) >= c.o.Window {
		if err := c.pump(); err != nil {
			return err
		}
	}
	return nil
}

// Finish waits for every outstanding verdict, closes the stream with the
// bye handshake and returns the final accounting. The client is unusable
// afterwards.
func (c *Client) Finish() (Report, error) {
	if c.finished {
		return Report{}, errFinished
	}
	for len(c.pend) > 0 {
		if err := c.pump(); err != nil {
			return Report{}, err
		}
	}
	var st serve.ConnStats
	for {
		if _, err := c.ensureConn(); err != nil {
			return Report{}, err
		}
		if err := c.cl.Bye(); err != nil {
			c.lastErr = err
			c.drop()
			continue
		}
		if err := c.cl.SetReadDeadline(time.Now().Add(c.o.RequestTimeout)); err != nil {
			c.lastErr = err
			c.drop()
			continue
		}
		s, _, _, err := c.cl.DrainStats()
		if err != nil {
			c.lastErr = err
			c.drop()
			continue
		}
		st = s
		break
	}
	c.cl.Close() //evaxlint:ignore droppederr the server already closed its side after the stats frame
	c.cl = nil
	c.finished = true
	verdicts := make([]serve.Verdict, 0, len(c.got))
	for _, v := range c.got {
		verdicts = append(verdicts, v)
	}
	sort.Slice(verdicts, func(i, j int) bool { return verdicts[i].Seq < verdicts[j].Seq })
	return Report{Session: c.session, Stats: c.stats, Conn: st, Verdicts: verdicts}, nil
}

// drop discards the current connection; the next ensureConn reconnects and
// replays.
func (c *Client) drop() {
	if c.cl == nil {
		return
	}
	c.cl.Close() //evaxlint:ignore droppederr the conn is already being abandoned as failed
	c.cl = nil
}

// ensureConn returns with a live, fully-replayed connection (fresh reports
// whether it had to reconnect) or the permanent error that made it give up.
func (c *Client) ensureConn() (fresh bool, err error) {
	for {
		if c.cl != nil {
			return fresh, nil
		}
		if c.fails >= c.o.MaxFailures {
			return false, fmt.Errorf("client %d: giving up after %d consecutive connection failures (last: %w)",
				c.o.ID, c.fails, c.lastErr)
		}
		switch {
		case c.fails >= c.o.BreakerThreshold:
			// Breaker open: one half-open probe per cooldown.
			if !c.breakerOpen {
				c.breakerOpen = true
				c.stats.BreakerOpens++
			}
			time.Sleep(c.o.BreakerCooldown)
		case c.attempt > 0:
			time.Sleep(c.backoff())
		}
		c.attempt++
		if err := c.connect(); err != nil {
			if permanent(err) {
				return false, err
			}
			c.lastErr = err
			c.fails++
			c.stats.DialFailures++
			continue
		}
		c.fails = 0
		c.breakerOpen = false
		c.stats.Dials++
		if c.stats.Dials > 1 {
			c.stats.Reconnects++
		}
		fresh = true
		if err := c.replay(); err != nil {
			c.lastErr = err
			c.drop()
			continue
		}
		return fresh, nil
	}
}

// backoff is the deterministic reconnect delay: exponential in the
// consecutive-failure count, jittered into [d/2, d) by a seed derived from
// (Name, ID, attempt) — no entropy, so a replayed schedule reconnects on an
// identical cadence.
func (c *Client) backoff() time.Duration {
	d := c.o.BackoffBase
	for i := 0; i < c.fails && d < c.o.BackoffMax; i++ {
		d *= 2
	}
	if d > c.o.BackoffMax {
		d = c.o.BackoffMax
	}
	seed := runner.DeriveSeed(c.o.Name, c.o.ID, int64(c.attempt))
	jit := time.Duration(uint64(seed) % uint64(d))
	return (d + jit) / 2
}

// connect dials, interposes, and runs the session handshake: session 0
// creates the server-side session, later attempts re-attach to it.
func (c *Client) connect() error {
	nc, err := net.DialTimeout("tcp", c.o.Addr, c.o.DialTimeout)
	if err != nil {
		return err
	}
	if c.o.Interpose != nil {
		nc = c.o.Interpose(nc)
	}
	cl := serve.WrapConn(nc)
	ack, err := cl.Resume(c.o.RawDim, c.session)
	if err != nil {
		cl.Close() //evaxlint:ignore droppederr the handshake already failed; the close error would mask it
		return err
	}
	c.session = ack.Session
	c.cl = cl
	return nil
}

// permanent reports whether the handshake was refused by the server (bad
// version, bad dim, unknown session) — retrying cannot heal these. The
// match is on serve.Client's refusal wrapping, not the bare "refused", so
// TCP's "connection refused" stays retryable.
func permanent(err error) bool {
	return err != nil && strings.Contains(err.Error(), "server refused")
}

// replay re-sends every unanswered sample in sequence order on the fresh
// connection. The server's dedup window makes this idempotent: scored
// sequences are answered from the verdict ring without re-scoring.
func (c *Client) replay() error {
	if len(c.pend) == 0 {
		return nil
	}
	seqs := make([]uint64, 0, len(c.pend))
	for s := range c.pend {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, s := range seqs {
		p := c.pend[s]
		if err := c.cl.Send(p.h, p.instructions, p.cycles, p.raw); err != nil {
			return err
		}
		c.stats.Retries++
	}
	return nil
}

// pump consumes server frames until one outstanding verdict is recorded,
// reconnecting (and replaying) through any failure on the way. Heartbeat
// pings go out after each silent Heartbeat window; RequestTimeout of total
// silence declares the connection dead.
func (c *Client) pump() error {
	for {
		if _, err := c.ensureConn(); err != nil {
			return err
		}
		if err := c.cl.SetReadDeadline(time.Now().Add(c.o.Heartbeat)); err != nil {
			c.lastErr = err
			c.drop()
			continue
		}
		fr, err := c.cl.Recv()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				// An idle window elapsed. A timeout mid-frame would leave
				// the reader desynced, but server frames are written as
				// whole flushes, so silence means a frame boundary; if a
				// tear does slip through, the decode checks below reject
				// the garbage and the reconnect replay recovers.
				c.idle += c.o.Heartbeat
				if c.idle >= c.o.RequestTimeout {
					c.idle = 0
					c.stats.Timeouts++
					c.lastErr = fmt.Errorf("client: no answer within %v", c.o.RequestTimeout)
					c.drop()
					continue
				}
				c.pingTok++
				if perr := c.cl.Ping(c.pingTok); perr != nil {
					c.lastErr = perr
					c.drop()
					continue
				}
				c.stats.Pings++
				continue
			}
			c.lastErr = err
			c.drop()
			continue
		}
		c.idle = 0
		switch fr.Type {
		case serve.FrameVerdict:
			v, derr := serve.DecodeVerdict(fr.Payload)
			if derr != nil {
				c.lastErr = derr
				c.drop()
				continue
			}
			if _, ok := c.pend[v.Seq]; !ok {
				continue // duplicate re-delivery of an already-recorded verdict
			}
			delete(c.pend, v.Seq)
			c.got[v.Seq] = v
			c.stats.Verdicts++
			return nil
		case serve.FramePong:
			continue // liveness confirmed
		case serve.FrameReject:
			r, derr := serve.DecodeReject(fr.Payload)
			if derr != nil {
				c.lastErr = derr
				c.drop()
				continue
			}
			if r.Code == serve.RejectOverload {
				// Admission control bounced it; the server rolled the
				// dedup slot back, so a paced resend is admitted fresh.
				c.stats.Overloads++
				p, ok := c.pend[r.Seq]
				if !ok {
					continue
				}
				time.Sleep(c.o.BackoffBase)
				if serr := c.cl.Send(p.h, p.instructions, p.cycles, p.raw); serr != nil {
					c.lastErr = serr
					c.drop()
					continue
				}
				c.stats.Retries++
				continue
			}
			return fmt.Errorf("client: server rejected seq %d (code %d): %s", r.Seq, r.Code, r.Msg)
		case serve.FrameDrain:
			continue // drain notice: in-flight verdicts still arrive
		case serve.FrameStats:
			// The server finished this conn (drain complete); anything
			// still pending moves to a fresh conn via resume.
			c.drop()
			continue
		case serve.FrameError:
			return fmt.Errorf("client: server error: %s", fr.Payload)
		default:
			// Unknown frame: treat as stream desync and resynchronize
			// through a reconnect.
			c.lastErr = fmt.Errorf("client: unexpected frame type 0x%02x", fr.Type)
			c.drop()
			continue
		}
	}
}
