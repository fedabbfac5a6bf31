package dataset

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"evax/internal/safeio"
)

// Binary row codec for SampleBlock rows. One encoded row carries the window
// geometry (instructions, cycles) followed by the raw counter deltas as
// IEEE-754 bit patterns, little-endian. The same codec backs the online
// serving protocol's sample frames (internal/serve) and the recorded replay
// corpora evaxload -record writes and evaxd -replay consumes, so a corpus
// recorded once is replayed through exactly the bytes a live client would
// have streamed.
//
// Decoding is hostile-input safe: every length is checked before any read,
// and malformed input returns an error — never a panic (serve.FuzzDecodeFrame
// drives this path with arbitrary bytes).

// RowWireSize returns the encoded size of a row of rawDim counters.
func RowWireSize(rawDim int) int { return 8 + 8 + 8*rawDim }

// AppendRow appends the wire encoding of one counter row to dst: two uint64
// window lengths, then each raw value's float64 bit pattern, little-endian.
func AppendRow(dst []byte, instructions, cycles uint64, raw []float64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, instructions)
	dst = binary.LittleEndian.AppendUint64(dst, cycles)
	for _, v := range raw {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeRowInto parses a row encoded by AppendRow from the front of b,
// writing len(raw) counter values into raw and returning the unconsumed
// tail. Zero allocations; the bit patterns round-trip exactly.
func DecodeRowInto(b []byte, raw []float64) (instructions, cycles uint64, rest []byte, err error) {
	need := RowWireSize(len(raw))
	if len(b) < need {
		return 0, 0, nil, fmt.Errorf("dataset: row truncated: %d bytes for a %d-counter row (need %d)",
			len(b), len(raw), need)
	}
	instructions = binary.LittleEndian.Uint64(b)
	cycles = binary.LittleEndian.Uint64(b[8:])
	for i := range raw {
		raw[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[16+8*i:]))
	}
	return instructions, cycles, b[need:], nil
}

// corpusMagic identifies a recorded replay corpus (version 1).
var corpusMagic = [8]byte{'E', 'V', 'A', 'X', 'C', 'O', 'R', '1'}

// maxCorpusRows bounds how many rows ReadCorpusFile will allocate for, so a
// corrupt header cannot demand an absurd allocation.
const maxCorpusRows = 1 << 24

// MarshalCorpus encodes samples as a replay corpus: magic, raw dimensionality,
// row count, then per row a label byte (bit 0: malicious) and the AppendRow
// encoding of the raw counter row. Derived vectors are not stored — the online
// scoring path recomputes the expansion exactly as the offline one does.
func MarshalCorpus(samples []Sample) ([]byte, error) {
	rawDim := 0
	if len(samples) > 0 {
		rawDim = len(samples[0].Raw)
	}
	out := append([]byte(nil), corpusMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(rawDim))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(samples)))
	for i := range samples {
		if len(samples[i].Raw) != rawDim {
			return nil, fmt.Errorf("dataset: corpus row %d has %d counters, row 0 has %d",
				i, len(samples[i].Raw), rawDim)
		}
		var label byte
		if samples[i].Malicious {
			label = 1
		}
		out = append(out, label)
		out = AppendRow(out, samples[i].Instructions, samples[i].Cycles, samples[i].Raw)
	}
	return out, nil
}

// UnmarshalCorpus decodes a corpus encoded by MarshalCorpus. The returned
// samples carry Raw, Instructions, Cycles and Malicious; their rows are views
// into one contiguous SampleBlock, like every other corpus in the repo.
// Malformed input returns an error, never a panic.
func UnmarshalCorpus(data []byte) ([]Sample, error) {
	if len(data) < len(corpusMagic)+8 {
		return nil, fmt.Errorf("dataset: corpus header truncated (%d bytes)", len(data))
	}
	if [8]byte(data[:8]) != corpusMagic {
		return nil, fmt.Errorf("dataset: not a replay corpus (bad magic %q)", data[:8])
	}
	rawDim := int(binary.LittleEndian.Uint32(data[8:]))
	rows := int(binary.LittleEndian.Uint32(data[12:]))
	if rows < 0 || rows > maxCorpusRows || rawDim < 0 {
		return nil, fmt.Errorf("dataset: corpus header claims %d rows of %d counters", rows, rawDim)
	}
	rest := data[16:]
	if need := rows * (1 + RowWireSize(rawDim)); len(rest) != need {
		return nil, fmt.Errorf("dataset: corpus body is %d bytes, header claims %d rows of %d counters (%d bytes)",
			len(rest), rows, rawDim, need)
	}
	block := NewSampleBlock(rawDim, 0)
	block.Grow(rows)
	samples := make([]Sample, rows)
	for i := 0; i < rows; i++ {
		label := rest[0]
		rest = rest[1:]
		ri := block.Extend()
		instr, cyc, tail, err := DecodeRowInto(rest, block.RawRow(ri))
		if err != nil {
			return nil, fmt.Errorf("dataset: corpus row %d: %w", i, err)
		}
		rest = tail
		samples[i] = Sample{
			Malicious:    label&1 != 0,
			Instructions: instr,
			Cycles:       cyc,
		}
	}
	block.Bind(samples)
	return samples, nil
}

// WriteCorpusFile persists a replay corpus crash-safely.
func WriteCorpusFile(path string, samples []Sample) error {
	data, err := MarshalCorpus(samples)
	if err != nil {
		return err
	}
	return safeio.WriteFile(path, data, 0o644)
}

// ReadCorpusFile loads a corpus written by WriteCorpusFile.
func ReadCorpusFile(path string) ([]Sample, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	samples, err := UnmarshalCorpus(data)
	if err != nil {
		return nil, fmt.Errorf("dataset: reading %s: %w", path, err)
	}
	return samples, nil
}
