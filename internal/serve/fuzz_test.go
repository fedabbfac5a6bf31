package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecodeFrame drives the frame decoder with arbitrary bytes. The
// contract under fuzzing is reject-or-accept, never panic: any input either
// decodes into a frame whose payload respects MaxPayload (and re-encodes to
// the exact consumed bytes), or returns an error. The payload-level decoders
// are fed every accepted frame, under the same never-panic rule.
func FuzzDecodeFrame(f *testing.F) {
	// Well-formed seeds: one of each frame type the protocol uses.
	f.Add(AppendHello(nil, Hello{Version: ProtocolVersion, RawDim: 4}))
	f.Add(AppendSample(nil, SampleHeader{Seq: 1, InstrStart: 100}, 200, 300, []float64{1, 2, 3, 4}))
	f.Add(AppendVerdict(nil, Verdict{Seq: 2, Score: 0.75, Flags: VerdictFlagged}))
	f.Add(AppendReject(nil, Reject{Seq: 3, Code: RejectOverload, Msg: "full"}))
	f.Add(AppendFrame(nil, FrameBye, nil))
	f.Add(AppendFrame(nil, FrameStats, []byte(`{"accepted":1}`)))
	f.Add(AppendPing(nil, 0x1122334455667788))
	f.Add(AppendPong(nil, 0x8877665544332211))
	f.Add(AppendResume(nil, Resume{Version: ProtocolVersion, RawDim: 4, Session: 99}))
	f.Add(AppendAck(nil, Ack{Session: 99, Window: 1024, High: 17}))
	// Malformed seeds: truncations, length lies, garbage.
	f.Add([]byte{})
	f.Add([]byte{FrameSample})
	f.Add([]byte{FrameSample, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x00, 0x01, 0x00, 0x00, 0x00})
	f.Add(bytes.Repeat([]byte{0xA5}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, rest, err := DecodeFrame(data)
		if err != nil {
			return // rejected: fine, as long as we got here without panicking
		}
		if len(fr.Payload) > MaxPayload {
			t.Fatalf("accepted payload of %d bytes beyond MaxPayload", len(fr.Payload))
		}
		consumed := len(data) - len(rest)
		if reenc := AppendFrame(nil, fr.Type, fr.Payload); !bytes.Equal(reenc, data[:consumed]) {
			t.Fatalf("re-encoding diverges from consumed bytes")
		}
		// Payload decoders must also reject-or-accept without panicking.
		switch fr.Type {
		case FrameHello:
			_, _ = DecodeHello(fr.Payload)
		case FrameSample:
			raw := make([]float64, 4)
			_, _, _, _ = DecodeSampleInto(fr.Payload, raw)
		case FrameVerdict:
			_, _ = DecodeVerdict(fr.Payload)
		case FrameReject:
			_, _ = DecodeReject(fr.Payload)
		case FramePing:
			_, _ = DecodePing(fr.Payload)
		case FramePong:
			_, _ = DecodePong(fr.Payload)
		case FrameResume:
			_, _ = DecodeResume(fr.Payload)
		case FrameAck:
			_, _ = DecodeAck(fr.Payload)
		}
		// Streamed decoding must agree with slice decoding on accept.
		fr2, err2 := ReadFrame(bytes.NewReader(data))
		if err2 != nil {
			t.Fatalf("DecodeFrame accepted but ReadFrame rejected: %v", err2)
		}
		if fr2.Type != fr.Type || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("ReadFrame disagrees with DecodeFrame")
		}
	})
}

// FuzzDecodeAdmin drives the client→server admin payload decoder with
// arbitrary bytes: it never panics, and every payload it accepts re-encodes
// through AppendAdmin to a frame carrying exactly that payload, which decodes
// back to the same Admin. The server's JSON answer is fed to the decoder
// Client.Admin uses, under the same never-panic rule.
func FuzzDecodeAdmin(f *testing.F) {
	f.Add([]byte{AdminStatus})
	f.Add([]byte{AdminRollback})
	f.Add(append([]byte{AdminSwap}, "/var/lib/evax/cand.json"...))
	f.Add([]byte{0xFF, 0x00})
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{AdminSwap}, 1+maxAdminPath+1))
	f.Add([]byte(`{"ok":true,"status":{"active_hash":"ab","epoch":2,"backend":"float","raw_dim":4}}`))
	f.Add([]byte(`{"ok":false,"error":"x","report":{}}`))

	f.Fuzz(func(t *testing.T, payload []byte) {
		var res AdminResult
		_ = json.Unmarshal(payload, &res)

		a, err := DecodeAdmin(payload)
		if err != nil {
			return
		}
		fr, rest, err := DecodeFrame(AppendAdmin(nil, a))
		if err != nil || len(rest) != 0 {
			t.Fatalf("AppendAdmin(%+v) does not decode as one frame: %v (%d bytes left)", a, err, len(rest))
		}
		if fr.Type != FrameAdmin || !bytes.Equal(fr.Payload, payload) {
			t.Fatalf("AppendAdmin(%+v) carries %x, decoded from %x", a, fr.Payload, payload)
		}
		back, err := DecodeAdmin(fr.Payload)
		if err != nil || back != a {
			t.Fatalf("re-decoded %+v (%v), want %+v", back, err, a)
		}
	})
}
