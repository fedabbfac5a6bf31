package serve

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// conn is one client connection. The reader goroutine owns the inbound
// framing and admission control; the writer goroutine owns every byte
// written back (verdicts from the shard, rejects and errors from the reader)
// so the socket never sees interleaved writes. Teardown is serialized in the
// reader: flush the shard (barrier), emit the stats frame, close the
// outbound queue — the writer drains it and closes the socket.
type conn struct {
	id    uint64
	srv   *Server
	nc    net.Conn
	shard *shard

	// sess is non-nil for connections that opened with a resume frame: the
	// session carries the dedup window, secure-window state and lifetime
	// counters across reconnects. Set once during the handshake (before any
	// sample), read by the reader and — through request.sess — the shard.
	sess *session

	// out carries encoded frames to the writer; closed by the reader at
	// teardown, after the shard flush barrier, so the shard never delivers
	// to a closed channel.
	out chan []byte

	// accepted/rejected are owned by the reader; scored/flagged and
	// secureUntil by the shard batcher. The flush barrier orders the
	// batcher's final writes before the reader composes the stats frame.
	accepted, rejected uint64
	scored, flagged    uint64
	secureUntil        uint64
}

// deliver hands an encoded frame to the writer. It blocks only when the
// outbound queue is full, and the writer always drains the queue (write
// failures switch it to discard mode), so delivery always completes.
func (c *conn) deliver(frame []byte) { c.out <- frame }

// deliverShed is deliver for session connections: a full outbound queue sheds
// the frame instead of blocking the shard on a slow client, reporting false.
// Shedding is safe only because every session verdict is also stored in the
// dedup ring — the client's request timeout triggers a replay and the stored
// verdict is re-delivered. The policy is deterministic: a frame is shed if
// and only if the queue is full at delivery.
func (c *conn) deliverShed(frame []byte) bool {
	select {
	case c.out <- frame:
		return true
	default:
		c.srv.putFrame(frame)
		c.srv.met.shed.Add(1)
		return false
	}
}

// reject answers seq with a reject frame and counts it.
func (c *conn) reject(seq uint64, code uint8, msg string) {
	c.rejected++
	c.srv.met.rejected.Add(1)
	if code == RejectOverload {
		c.srv.met.rejectedLoad.Add(1)
	}
	c.deliver(AppendReject(nil, Reject{Seq: seq, Code: code, Msg: msg}))
}

// readLoop is the connection's reader goroutine (it also runs teardown).
func (c *conn) readLoop() {
	defer c.srv.readerWg.Done()
	defer c.teardown()
	br := bufio.NewReaderSize(c.nc, 64<<10)
	if err := c.handshake(br); err != nil {
		c.deliver(AppendError(nil, err.Error()))
		return
	}
	idle := c.srv.cfg.IdleTimeout
	for {
		if idle > 0 {
			// Every frame re-arms the idle deadline: a client that goes
			// silent-dead mid-stream is reaped instead of pinning this
			// reader (and its shard pin) until process exit. Live-but-idle
			// clients stay connected by sending pings.
			//evaxlint:ignore droppederr a failed deadline set surfaces as the subsequent read error
			c.nc.SetReadDeadline(time.Now().Add(idle))
			// Checked AFTER arming: Drain flips draining before kicking
			// deadlines, so either we observe draining here and leave, or
			// our re-arm strictly preceded Drain's kick and cannot erase
			// it. Without this order a re-arm could overwrite the kick and
			// pin Drain for a full idle period.
			if c.srv.isDraining() {
				return
			}
		}
		fr, err := ReadFrame(br)
		if err != nil {
			// EOF, client reset, the drain deadline, or the idle deadline:
			// either way the connection stops reading and tears down
			// gracefully (teardown's flush barrier still answers every
			// already-accepted sample).
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && !c.srv.isDraining() {
				c.srv.met.idleReaped.Add(1)
			}
			return
		}
		switch fr.Type {
		case FrameSample:
			c.handleSample(fr.Payload)
		case FramePing:
			token, err := DecodePing(fr.Payload)
			if err != nil {
				c.deliver(AppendError(nil, err.Error()))
				return
			}
			c.deliver(AppendPong(nil, token))
		case FrameAdmin:
			c.handleAdmin(fr.Payload)
		case FrameBye:
			return
		default:
			c.deliver(AppendError(nil, fmt.Sprintf("serve: unexpected frame type 0x%02x", fr.Type)))
			return
		}
	}
}

// handshake enforces the opening exchange: version and counter-space
// agreement before any sample is admitted. Two openings exist: a hello
// (sessionless, answered with an echoed hello) and a resume (session-backed,
// answered with an ack naming the session and its dedup window).
func (c *conn) handshake(br *bufio.Reader) error {
	//evaxlint:ignore droppederr a failed deadline set surfaces as the subsequent read error
	c.nc.SetReadDeadline(time.Now().Add(helloTimeout))
	fr, err := ReadFrame(br)
	if err != nil {
		return fmt.Errorf("serve: reading hello: %w", err)
	}
	//evaxlint:ignore droppederr a failed deadline clear surfaces as a read error on the next frame
	c.nc.SetReadDeadline(time.Time{})
	if c.srv.isDraining() {
		// A conn registered in the drain race window: refuse politely.
		return errors.New("serve: server is draining")
	}
	var version, rawDim uint32
	var session uint64
	resume := false
	switch fr.Type {
	case FrameHello:
		h, err := DecodeHello(fr.Payload)
		if err != nil {
			return err
		}
		version, rawDim = h.Version, h.RawDim
	case FrameResume:
		r, err := DecodeResume(fr.Payload)
		if err != nil {
			return err
		}
		version, rawDim, session, resume = r.Version, r.RawDim, r.Session, true
	default:
		return fmt.Errorf("serve: first frame must be hello or resume, got type 0x%02x", fr.Type)
	}
	if version != ProtocolVersion {
		return fmt.Errorf("serve: protocol version %d not supported (want %d)", version, ProtocolVersion)
	}
	if int(rawDim) != c.srv.rawDim {
		return fmt.Errorf("serve: client streams %d counters, server catalog has %d", rawDim, c.srv.rawDim)
	}
	if resume {
		ack, err := c.srv.attachSession(c, session)
		if err != nil {
			return err
		}
		c.deliver(AppendAck(nil, ack))
		return nil
	}
	// Echo the hello so the client knows the dimensionality was agreed.
	c.deliver(AppendHello(nil, Hello{Version: ProtocolVersion, RawDim: uint32(c.srv.rawDim)}))
	return nil
}

// handleSample decodes and admits one sample frame: non-blocking enqueue to
// the pinned shard's bounded queue, reject on overflow or drain. Admission
// control never buffers beyond the queue bound. Session connections run the
// dedup protocol first, so a replayed sample is never scored twice.
func (c *conn) handleSample(payload []byte) {
	if c.srv.isDraining() {
		c.reject(bestEffortSeq(payload), RejectDraining, "server draining")
		return
	}
	row := c.srv.getRow()
	h, instructions, cycles, err := DecodeSampleInto(payload, row)
	if err != nil {
		c.srv.putRow(row)
		c.reject(bestEffortSeq(payload), RejectMalformed, err.Error())
		return
	}
	req := request{
		c:            c,
		sess:         c.sess,
		seq:          h.Seq,
		instrStart:   h.InstrStart,
		instructions: instructions,
		cycles:       cycles,
		raw:          row,
		enq:          time.Now(),
	}
	if sess := c.sess; sess != nil {
		sess.mu.Lock()
		undo := sess.undoFor(h.Seq)
		verdict, stored := sess.admit(h.Seq)
		switch verdict {
		case admitDup:
			sess.dupes++
			sess.mu.Unlock()
			c.srv.met.dupes.Add(1)
			c.srv.putRow(row)
			return // verdict is in flight; its flush will (re)deliver
		case admitReplay:
			sess.dupes++
			sess.resent++
			sess.mu.Unlock()
			c.srv.met.dupes.Add(1)
			c.srv.met.resent.Add(1)
			c.srv.putRow(row)
			c.deliver(AppendVerdict(c.srv.getFrame(), stored))
			return
		case admitStale:
			sess.rejected++
			sess.mu.Unlock()
			c.srv.putRow(row)
			c.reject(h.Seq, RejectStale,
				fmt.Sprintf("seq outside dedup window (%d)", c.srv.cfg.SessionWindow))
			return
		}
		// admitFresh: the slot is marked inflight; enqueue while still
		// holding the lock so an overload reject can roll the admit back
		// before any replay of the same seq can observe it.
		select {
		case c.shard.ch <- req:
			sess.accepted++
			sess.mu.Unlock()
			c.accepted++
			c.srv.met.accepted.Add(1)
		default:
			sess.rollback(h.Seq, undo)
			sess.rejected++
			sess.mu.Unlock()
			c.srv.putRow(row)
			c.reject(h.Seq, RejectOverload,
				fmt.Sprintf("shard queue full (%d)", c.srv.cfg.QueueBound))
		}
		return
	}
	select {
	case c.shard.ch <- req:
		c.accepted++
		c.srv.met.accepted.Add(1)
	default:
		c.srv.putRow(row)
		c.reject(h.Seq, RejectOverload,
			fmt.Sprintf("shard queue full (%d)", c.srv.cfg.QueueBound))
	}
}

// bestEffortSeq extracts the sequence number from a possibly-malformed sample
// payload so the reject can still be correlated.
func bestEffortSeq(payload []byte) uint64 {
	if len(payload) >= 8 {
		return binary.LittleEndian.Uint64(payload)
	}
	return 0
}

// teardown is the graceful close, shared by every exit path (bye, client
// error, drain): flush the shard so every accepted sample's verdict is
// already in the outbound queue, announce drain if one is in progress, emit
// the connection stats frame, and close the queue.
func (c *conn) teardown() {
	ack := make(chan struct{})
	c.shard.ch <- request{flush: ack}
	<-ack
	// The barrier ordered every batcher write (scored/flagged) before this
	// point; stats are now consistent. For session conns it also means no
	// shard flush still holds this conn as a delivery target, so detaching
	// and closing the queue below cannot race a verdict delivery.
	c.srv.detachSession(c)
	if c.srv.isDraining() {
		c.deliver(AppendFrame(nil, FrameDrain, nil))
	}
	cs := ConnStats{
		Accepted:   c.accepted,
		Rejected:   c.rejected,
		Scored:     c.scored,
		Flagged:    c.flagged,
		Shard:      c.srv.cfg.ShardID,
		BundleHash: c.srv.sw.Active().HashHex(),
		Epoch:      c.srv.sw.Epoch(),
	}
	if sess := c.sess; sess != nil {
		sess.mu.Lock()
		cs.Session = sess.id
		cs.SessionAccepted = sess.accepted
		cs.SessionScored = sess.scored
		cs.SessionFlagged = sess.flagged
		cs.Dupes = sess.dupes
		cs.Resent = sess.resent
		cs.Shed = sess.shed
		sess.mu.Unlock()
	}
	stats, err := json.Marshal(cs)
	if err == nil {
		c.deliver(AppendFrame(nil, FrameStats, stats))
	}
	close(c.out)
	c.srv.unregister(c)
}

// writeLoop is the connection's writer goroutine: the single owner of the
// socket's write side. On a write error it stops writing but keeps draining
// the queue, so shard deliveries never block on a dead client.
func (c *conn) writeLoop() {
	defer c.srv.connWg.Done()
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	dead := false
	for frame := range c.out {
		if dead {
			// Still recycle: a discarded frame's buffer is as reusable as a
			// written one.
			c.srv.putFrame(frame)
			continue
		}
		//evaxlint:ignore droppederr a failed deadline set surfaces as the subsequent write error
		c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
		_, err := bw.Write(frame)
		// bufio copied the frame (or failed); either way the buffer is free
		// to recycle into the verdict freelist.
		c.srv.putFrame(frame)
		if err != nil {
			dead = true
			c.srv.met.writeErrors.Add(1)
			continue
		}
		if len(c.out) == 0 {
			if err := bw.Flush(); err != nil {
				dead = true
				c.srv.met.writeErrors.Add(1)
			}
		}
	}
	if !dead {
		//evaxlint:ignore droppederr the connection is closing; a final flush failure has no receiver to report to
		if err := bw.Flush(); err == nil {
			c.lingerClose()
		}
	}
	//evaxlint:ignore droppederr close failure on an already-drained connection loses nothing
	c.nc.Close()
}

// lingerClose protects the final frames from a TCP reset. Closing a socket
// whose kernel receive buffer still holds unread bytes — routine when drain
// kicks the reader off a connection the client is still streaming into —
// sends RST instead of FIN, and the reset discards the stats frame out of
// the client's receive path. So: half-close the write side (FIN after the
// flushed tail), then consume the client's in-flight bytes until its FIN or
// a bounded deadline, and only then fully close. Runs on the writer
// goroutine after the reader has exited, so it is the socket's sole reader.
func (c *conn) lingerClose() {
	cw, ok := c.nc.(interface{ CloseWrite() error })
	if !ok {
		return
	}
	if err := cw.CloseWrite(); err != nil {
		return
	}
	//evaxlint:ignore droppederr a failed deadline set surfaces as the discard read erroring out
	c.nc.SetReadDeadline(time.Now().Add(lingerTimeout))
	//evaxlint:ignore droppederr discarding the client's in-flight tail; any error ends the linger
	io.Copy(io.Discard, c.nc)
}
