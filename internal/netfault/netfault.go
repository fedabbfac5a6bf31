// Package netfault injects deterministic network faults into the serving
// stack's length-prefixed frame streams. A Schedule — derived from a name via
// runner.DeriveSeed, never from entropy — assigns each logical client a fixed
// sequence of faulty connection attempts; wrapping a dialed net.Conn with the
// client's Injector applies exactly the fault planned for that attempt.
//
// Faults are anchored at frame boundaries, not byte counts or timers: the
// wrapped conn parses the TYPE|LEN32 frame headers flowing through it and
// fires when the target frame index is reached. Because the serving protocol
// guarantees every attempt writes a handshake (frame 0) followed by at least
// one sample frame, and reads an ack (frame 0) followed by at least one
// verdict, a fault targeting frame 1 fires on every attempt regardless of
// scheduler timing — chaos runs are bit-reproducible: same schedule, same
// fault event sequence, run after run.
package netfault

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"evax/internal/runner"
)

// ErrInjected is returned by every Read/Write on a wrapped conn after its
// planned fault has fired. Clients treat it like any other peer failure.
var ErrInjected = errors.New("netfault: injected fault")

// Op identifies a fault class.
type Op uint8

const (
	// OpKillWrite severs the connection just before the first byte of the
	// target outbound frame: the peer sees a clean close mid-stream.
	OpKillWrite Op = iota + 1
	// OpTornWrite delivers the header plus half the payload of the target
	// outbound frame, then severs: the peer sees a torn partial frame.
	OpTornWrite
	// OpTruncWrite delivers the target outbound frame minus its final
	// byte, then severs: a one-byte truncation, the hardest tear to spot.
	OpTruncWrite
	// OpStallWrite pauses for the schedule's stall duration just before
	// the target outbound frame, then severs: exercises peer read
	// deadlines and client liveness detection.
	OpStallWrite
	// OpKillRead delivers inbound frames up to and including the target,
	// then fails the next read: the client loses in-flight verdicts.
	OpKillRead
)

func (o Op) String() string {
	switch o {
	case OpKillWrite:
		return "kill-write"
	case OpTornWrite:
		return "torn-write"
	case OpTruncWrite:
		return "trunc-write"
	case OpStallWrite:
		return "stall-write"
	case OpKillRead:
		return "kill-read"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ops is the pool Plan draws from, in a fixed order the seed indexes into.
var ops = []Op{OpKillWrite, OpTornWrite, OpTruncWrite, OpStallWrite, OpKillRead}

// Fault is one planned injection: on connection attempt Attempt (1-based),
// fire Op at frame index Frame of the relevant direction.
type Fault struct {
	Attempt int
	Frame   int
	Op      Op
	Stall   time.Duration // OpStallWrite only
}

// Event records a fault that actually fired.
type Event struct {
	Client  int
	Attempt int
	Frame   int
	Op      Op
}

func (e Event) String() string {
	return fmt.Sprintf("client=%d attempt=%d frame=%d op=%s", e.Client, e.Attempt, e.Frame, e.Op)
}

// Log collects fired fault events across all clients of a schedule.
type Log struct {
	mu     sync.Mutex
	events []Event
}

func (l *Log) add(e Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// Sorted returns the fired events in (client, attempt) order — the canonical
// form for comparing two runs, independent of goroutine interleaving.
func (l *Log) Sorted() []Event {
	l.mu.Lock()
	out := append([]Event(nil), l.events...)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Client != out[j].Client {
			return out[i].Client < out[j].Client
		}
		return out[i].Attempt < out[j].Attempt
	})
	return out
}

// Schedule is a deterministic fault plan for a fleet of clients plus the log
// of faults that actually fired.
type Schedule struct {
	Name   string
	faults [][]Fault // per client, indexed by attempt-1
	Events Log
}

// Plan derives a schedule: each of clients suffers one fault per connection
// attempt for attempts 1..faultsPerClient, then connects cleanly forever
// after. The op for (client, attempt) is drawn from
// runner.DeriveSeed(name, client, attempt), so the full fault sequence is a
// pure function of the arguments. Every fault targets frame 1 — the first
// frame after the handshake/ack — which the protocol guarantees exists on
// every attempt, making the plan timing-independent.
func Plan(name string, clients, faultsPerClient int, stall time.Duration) *Schedule {
	s := &Schedule{Name: name, faults: make([][]Fault, clients)}
	for c := 0; c < clients; c++ {
		for a := 1; a <= faultsPerClient; a++ {
			seed := runner.DeriveSeed(name, c, int64(a))
			f := Fault{Attempt: a, Frame: 1, Op: ops[int(seed%int64(len(ops)))]}
			if f.Op == OpStallWrite {
				f.Stall = stall
			}
			s.faults[c] = append(s.faults[c], f)
		}
	}
	return s
}

// Faults returns the planned fault list for client c, in attempt order.
func (s *Schedule) Faults(c int) []Fault {
	if c < 0 || c >= len(s.faults) {
		return nil
	}
	return append([]Fault(nil), s.faults[c]...)
}

// Total returns the number of planned faults across all clients.
func (s *Schedule) Total() int {
	n := 0
	for _, fs := range s.faults {
		n += len(fs)
	}
	return n
}

// Client returns the injector for logical client c. Each call to the
// injector's Wrap counts one connection attempt.
func (s *Schedule) Client(c int) *Injector {
	return &Injector{sched: s, client: c}
}

// Injector wraps successive connection attempts of one logical client with
// that client's planned faults. Not safe for concurrent Wrap calls — each
// logical client owns its injector.
type Injector struct {
	sched   *Schedule
	client  int
	attempt int
}

// Attempts reports how many connections this injector has wrapped.
func (in *Injector) Attempts() int { return in.attempt }

// Wrap registers one connection attempt and returns nc wrapped with the
// fault planned for it, or nc untouched once the plan is exhausted.
func (in *Injector) Wrap(nc net.Conn) net.Conn {
	in.attempt++
	var fs []Fault
	if in.client < len(in.sched.faults) {
		fs = in.sched.faults[in.client]
	}
	if in.attempt > len(fs) {
		return nc
	}
	f := fs[in.attempt-1]
	return &faultConn{Conn: nc, sched: in.sched, client: in.client, fault: f, cut: -1}
}

// tracker walks a byte stream of TYPE|LEN32|PAYLOAD frames, maintaining the
// index of the frame being assembled and the absolute stream offset.
type tracker struct {
	idx    int   // index of the frame currently being assembled
	off    int64 // absolute stream offset consumed so far
	rem    int   // payload bytes remaining in the current frame
	hdrLen int   // header bytes consumed of the current frame
	hdr    [5]byte
}

// feed consumes bytes of stream and advances the frame state.
func (tr *tracker) feed(p []byte) {
	for len(p) > 0 {
		if tr.rem > 0 {
			n := tr.rem
			if n > len(p) {
				n = len(p)
			}
			tr.rem -= n
			tr.off += int64(n)
			p = p[n:]
			if tr.rem == 0 {
				tr.idx++
			}
			continue
		}
		n := copy(tr.hdr[tr.hdrLen:], p)
		tr.hdrLen += n
		tr.off += int64(n)
		p = p[n:]
		if tr.hdrLen == len(tr.hdr) {
			tr.hdrLen = 0
			tr.rem = int(binary.LittleEndian.Uint32(tr.hdr[1:]))
			if tr.rem == 0 {
				tr.idx++ // zero-payload frame completes with its header
			}
		}
	}
}

// faultConn applies one planned fault to a net.Conn, then fails every
// subsequent operation with ErrInjected. Each direction is driven by at most
// one goroutine (the serving client has a single writer and a single reader),
// so the trackers and cut point need no lock; only the fired flag is shared
// across directions.
type faultConn struct {
	net.Conn
	sched  *Schedule
	client int
	fault  Fault

	wr    tracker
	rd    tracker
	cut   int64 // absolute offset of the cut point, -1 until computable
	fired atomic.Bool
}

// plan decides, for the tracker's current position, how many more bytes may
// safely pass (safe >= 1) or that the cut point has been reached (fire).
// Called only from the goroutine driving the fault's direction.
func (fc *faultConn) plan(tr *tracker) (safe int, fire bool) {
	f := fc.fault
	if fc.cut >= 0 {
		if tr.off >= fc.cut {
			return 0, true
		}
		return int(fc.cut - tr.off), false
	}
	if tr.idx > f.Frame {
		return 0, true // target frame slipped past (e.g. zero payload): fire now
	}
	if tr.idx < f.Frame {
		if tr.rem > 0 {
			return tr.rem, false // rest of an earlier frame's payload
		}
		return len(tr.hdr) - tr.hdrLen, false // rest of an earlier frame's header
	}
	// At or inside the target frame.
	switch f.Op {
	case OpKillWrite, OpStallWrite:
		return 0, true // cut sits at the target frame's first byte
	default: // OpTornWrite, OpTruncWrite, OpKillRead: cut inside/after payload
		if tr.rem == 0 {
			return len(tr.hdr) - tr.hdrLen, false // target header may pass
		}
		switch f.Op {
		case OpTornWrite:
			fc.cut = tr.off + int64(tr.rem/2)
		case OpTruncWrite:
			fc.cut = tr.off + int64(tr.rem) - 1
		default: // OpKillRead: the whole target frame is delivered first
			fc.cut = tr.off + int64(tr.rem)
		}
		if tr.off >= fc.cut {
			return 0, true
		}
		return int(fc.cut - tr.off), false
	}
}

// fire records the event and severs the underlying conn.
func (fc *faultConn) fire() {
	fc.fired.Store(true)
	fc.sched.Events.add(Event{Client: fc.client, Attempt: fc.fault.Attempt, Frame: fc.fault.Frame, Op: fc.fault.Op})
	fc.Conn.Close() //evaxlint:ignore droppederr severing the conn IS the fault; nothing to report
}

func (fc *faultConn) Write(p []byte) (int, error) {
	if fc.fired.Load() {
		return 0, ErrInjected
	}
	if fc.fault.Op == OpKillRead {
		return fc.Conn.Write(p)
	}
	written := 0
	for written < len(p) {
		safe, fire := fc.plan(&fc.wr)
		if fire {
			if fc.fault.Op == OpStallWrite && fc.fault.Stall > 0 {
				time.Sleep(fc.fault.Stall)
			}
			fc.fire()
			return written, ErrInjected
		}
		limit := len(p) - written
		if safe < limit {
			limit = safe
		}
		n, err := fc.Conn.Write(p[written : written+limit])
		fc.wr.feed(p[written : written+n])
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

func (fc *faultConn) Read(p []byte) (int, error) {
	if fc.fired.Load() {
		return 0, ErrInjected
	}
	if fc.fault.Op != OpKillRead {
		return fc.Conn.Read(p)
	}
	safe, fire := fc.plan(&fc.rd)
	if fire {
		fc.fire()
		return 0, ErrInjected
	}
	limit := len(p)
	if safe < limit {
		limit = safe
	}
	n, err := fc.Conn.Read(p[:limit])
	fc.rd.feed(p[:n])
	return n, err
}
