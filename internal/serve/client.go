package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrRefused wraps every handshake the server answered with an error frame
// (bad version, bad dim, unknown session). Retrying cannot heal these, so
// Stream gives up on them at once; a TCP "connection refused" is not one.
var ErrRefused = errors.New("serve: server refused")

// Client speaks the framing protocol from the client side. It is used by
// Stream, perfbench and the integration tests; it is not safe for concurrent
// use of the same side (one goroutine may send while another receives).
//
// One writer goroutine per client owns the socket's write side. Send, Bye,
// Ping and Admin only append their encoded frame to a pending buffer; the
// writer swaps buffers and writes the whole backlog in one Write, writing
// again at once while more is pending. There is no timer: a lone frame goes
// out as soon as the writer is idle, and a burst goes out in one segment.
// Once writeBound bytes are pending, senders block until the writer catches
// up, so a peer that stops reading costs bounded memory. The first write
// error is sticky: the backlog it hit is lost, and every later call that
// writes returns that error, so a failed write surfaces on the next call
// rather than on the one whose frame it was. Close stops the writer; a
// Client must be closed even after a clean bye.
type Client struct {
	nc  net.Conn
	br  *bufio.Reader
	buf []byte // the sending side's encode scratch

	mu      sync.Mutex
	more    sync.Cond     // signalled when pending gains a frame or err is set
	room    sync.Cond     // broadcast when pending empties or the writer stops
	pending []byte        // frames appended since the writer's last swap
	spare   []byte        // the writer's previous buffer, reused as the next pending
	writing bool          // the writer holds a swapped-out backlog
	err     error         // first write error, or net.ErrClosed after Close; stops the writer
	done    chan struct{} // closed when the writer returns
}

// writeBound is the pending backlog at which senders block until the writer
// catches up. A frame is appended whenever less than this is pending, so the
// backlog can exceed it by at most one frame.
const writeBound = 64 << 10

// Dial connects to a server and completes the hello exchange for a
// rawDim-counter stream.
func Dial(addr string, rawDim int) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	c := newClient(nc)
	if err := c.writeFrame(AppendHello(c.buf[:0], Hello{Version: ProtocolVersion, RawDim: uint32(rawDim)})); err != nil {
		//evaxlint:ignore droppederr the dial already failed; the close error would mask the handshake error
		c.Close()
		return nil, fmt.Errorf("serve: sending hello: %w", err)
	}
	fr, err := c.Recv()
	if err != nil {
		//evaxlint:ignore droppederr the dial already failed; the close error would mask the handshake error
		c.Close()
		return nil, fmt.Errorf("serve: reading hello echo: %w", err)
	}
	if fr.Type == FrameError {
		//evaxlint:ignore droppederr the server refused the handshake; its error frame is the failure to report
		c.Close()
		return nil, fmt.Errorf("%w hello: %s", ErrRefused, fr.Payload)
	}
	if fr.Type != FrameHello {
		//evaxlint:ignore droppederr the handshake already failed; the close error would mask the protocol error
		c.Close()
		return nil, fmt.Errorf("serve: expected hello echo, got frame type 0x%02x", fr.Type)
	}
	return c, nil
}

// newClient builds a Client over an already-dialed conn without any
// handshake and starts its writer.
func newClient(nc net.Conn) *Client {
	c := &Client{
		nc:   nc,
		br:   bufio.NewReaderSize(nc, 64<<10),
		done: make(chan struct{}),
	}
	c.more.L = &c.mu
	c.room.L = &c.mu
	go c.writeLoop()
	return c
}

// Resume runs the session handshake on a fresh conn: session 0 creates a new
// session, a prior ack's session id re-attaches to it. Returns the server's
// ack (session id, dedup window, highest admitted seq).
func (c *Client) Resume(rawDim int, session uint64) (Ack, error) {
	r := Resume{Version: ProtocolVersion, RawDim: uint32(rawDim), Session: session}
	if err := c.writeFrame(AppendResume(c.buf[:0], r)); err != nil {
		return Ack{}, fmt.Errorf("serve: sending resume: %w", err)
	}
	fr, err := c.Recv()
	if err != nil {
		return Ack{}, fmt.Errorf("serve: reading resume ack: %w", err)
	}
	switch fr.Type {
	case FrameAck:
		return DecodeAck(fr.Payload)
	case FrameError:
		return Ack{}, fmt.Errorf("%w resume: %s", ErrRefused, fr.Payload)
	default:
		return Ack{}, fmt.Errorf("serve: expected ack, got frame type 0x%02x", fr.Type)
	}
}

// dialSession connects, passes the conn through interpose (when non-nil) and
// opens (session == 0) or resumes a session-backed stream.
func dialSession(addr string, timeout time.Duration, interpose func(net.Conn) net.Conn, rawDim int, session uint64) (*Client, Ack, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, Ack{}, err
	}
	if interpose != nil {
		nc = interpose(nc)
	}
	c := newClient(nc)
	ack, err := c.Resume(rawDim, session)
	if err != nil {
		//evaxlint:ignore droppederr the handshake already failed; the close error would mask it
		c.Close()
		return nil, Ack{}, err
	}
	return c, ack, nil
}

// Ping sends a liveness probe; the server answers with a pong carrying the
// same token and resets its idle deadline for this conn.
func (c *Client) Ping(token uint64) error {
	return c.writeFrame(AppendPing(c.buf[:0], token))
}

// CloseWrite half-closes the connection (TCP FIN on the write side) while
// keeping the read side open: the server sees EOF, flushes everything in
// flight, and its verdicts/stats still flow back. It first waits until the
// writer has written every pending frame, and returns the sticky write error
// instead if that drain failed. Falls back to a full close of the socket when
// the transport cannot half-close.
func (c *Client) CloseWrite() error {
	c.mu.Lock()
	for (len(c.pending) > 0 || c.writing) && c.err == nil {
		c.room.Wait()
	}
	err := c.err
	c.mu.Unlock()
	if err != nil {
		return err
	}
	type closeWriter interface{ CloseWrite() error }
	if cw, ok := c.nc.(closeWriter); ok {
		return cw.CloseWrite()
	}
	return c.nc.Close()
}

// SetReadDeadline bounds the next Recv, for callers implementing their own
// liveness detection.
func (c *Client) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// writeFrame queues one pre-encoded frame for the writer, keeping the encode
// buffer for reuse. It blocks while writeBound bytes are pending and returns
// the sticky error once a write has failed or the client is closed.
func (c *Client) writeFrame(frame []byte) error {
	c.buf = frame[:0]
	c.mu.Lock()
	for len(c.pending) >= writeBound && c.err == nil {
		c.room.Wait()
	}
	err := c.err
	if err == nil {
		c.pending = append(c.pending, frame...)
	}
	c.mu.Unlock()
	c.more.Signal()
	return err
}

// writeLoop is the client's writer goroutine, the single owner of the
// socket's write side: it swaps out whatever is pending and writes it in one
// Write, until Close or the first write error, which it keeps for every later
// writeFrame to return.
func (c *Client) writeLoop() {
	defer close(c.done)
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for len(c.pending) == 0 && c.err == nil {
			c.more.Wait()
		}
		if c.err != nil {
			return
		}
		out := c.pending
		c.pending, c.spare = c.spare[:0], nil
		c.writing = true
		c.room.Broadcast()
		c.mu.Unlock()
		_, err := c.nc.Write(out)
		c.mu.Lock()
		c.writing = false
		c.spare = out[:0]
		if err != nil {
			if c.err == nil {
				c.err = err
			}
			c.room.Broadcast()
			return
		}
		if len(c.pending) == 0 {
			c.room.Broadcast()
		}
	}
}

// Send queues one sample frame for the writer. A nil error means the frame
// is queued, not written; a write that fails later is returned by the next
// call.
func (c *Client) Send(h SampleHeader, instructions, cycles uint64, raw []float64) error {
	return c.writeFrame(AppendSample(c.buf[:0], h, instructions, cycles, raw))
}

// Bye announces the client is done sending; the server will flush, answer
// everything in flight, send stats and close.
func (c *Client) Bye() error {
	return c.writeFrame(AppendFrame(c.buf[:0], FrameBye, nil))
}

// Recv reads the next server frame.
func (c *Client) Recv() (Frame, error) {
	return ReadFrame(c.br)
}

// DrainStats receives frames until the connection's FrameStats arrives,
// returning it along with every verdict and reject seen on the way.
func (c *Client) DrainStats() (ConnStats, []Verdict, []Reject, error) {
	var (
		verdicts []Verdict
		rejects  []Reject
	)
	for {
		fr, err := c.Recv()
		if err != nil {
			return ConnStats{}, verdicts, rejects, err
		}
		switch fr.Type {
		case FrameVerdict:
			v, err := DecodeVerdict(fr.Payload)
			if err != nil {
				return ConnStats{}, verdicts, rejects, err
			}
			verdicts = append(verdicts, v)
		case FrameReject:
			r, err := DecodeReject(fr.Payload)
			if err != nil {
				return ConnStats{}, verdicts, rejects, err
			}
			rejects = append(rejects, r)
		case FrameStats:
			var st ConnStats
			if err := json.Unmarshal(fr.Payload, &st); err != nil {
				return ConnStats{}, verdicts, rejects, err
			}
			return st, verdicts, rejects, nil
		case FrameDrain:
			// Informational: the server is draining; stats still follow.
		case FramePong:
			// A late heartbeat answer; irrelevant once draining.
		case FrameError:
			return ConnStats{}, verdicts, rejects, fmt.Errorf("serve: server error: %s", fr.Payload)
		default:
			return ConnStats{}, verdicts, rejects, fmt.Errorf("serve: unexpected frame type 0x%02x", fr.Type)
		}
	}
}

// Close tears the connection down without the bye handshake: frames still
// pending are dropped, a Send blocked at the bound returns net.ErrClosed, and
// Close returns once the writer has stopped.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.err == nil {
		c.err = net.ErrClosed
	}
	c.mu.Unlock()
	c.more.Signal()
	c.room.Broadcast()
	err := c.nc.Close()
	<-c.done
	return err
}
