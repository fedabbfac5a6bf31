package main

import (
	"fmt"
	"path/filepath"
	"time"

	"evax/internal/detect"
	"evax/internal/engine"
	"evax/internal/hpc"
	"evax/internal/kernel"
	"evax/internal/safeio"
	"evax/internal/serve"
)

// probeTime is how long each per-sample micro-probe repeats its pass over
// the serving corpus; the figure is the median pass.
const probeTime = 300 * time.Millisecond

// frameHeader is the TYPE|LEN32 prefix of every frame; the codec probe
// decodes payloads directly, as the connection reader does after framing.
const frameHeader = 5

// servingLayers holds the per-sample and per-operation costs of the
// serving stack's layers, measured one layer at a time over the serving
// corpus.
type servingLayers struct {
	expandNs, codecNs, floatNs, quantNs float64
	loadMs, canaryMs, writeMs           float64
}

func probeServingLayers(env *servingEnv, backend, dir string, tr *tracer, parent int) (servingLayers, error) {
	var out servingLayers
	rows := env.rows
	n := float64(len(rows))

	id := tr.begin("hpc.Expander.ExpandInto", parent)
	exp := hpc.NewExpander(env.rawDim)
	dst := make([]float64, exp.Dim())
	out.expandNs = timeReps(probeTime, func() {
		for i := range rows {
			s := &rows[i]
			exp.ExpandInto(dst, hpc.Sample{Values: s.Raw, Instructions: s.Instructions, Cycles: s.Cycles})
		}
	}) / n * 1e9
	tr.end(id)

	id = tr.begin("serve.codec", parent)
	var buf []byte
	raw := make([]float64, env.rawDim)
	var codecErr error
	out.codecNs = timeReps(probeTime, func() {
		for i := range rows {
			s := &rows[i]
			buf = serve.AppendSample(buf[:0], serve.SampleHeader{Seq: uint64(i)}, s.Instructions, s.Cycles, s.Raw)
			_, _, _, err := serve.DecodeSampleInto(buf[frameHeader:], raw)
			if err == nil {
				buf = serve.AppendVerdict(buf[:0], serve.Verdict{Seq: uint64(i), Score: raw[0]})
				_, err = serve.DecodeVerdict(buf[frameHeader:])
			}
			if err != nil && codecErr == nil {
				codecErr = err
			}
		}
	}) / n * 1e9
	tr.end(id)
	if codecErr != nil {
		return out, fmt.Errorf("codec round trip: %w", codecErr)
	}

	id = tr.begin("kernel.ScoreRawRows", parent)
	fk, err := detect.CompileScorer(env.det, env.ds.Maxima())
	if err != nil {
		return out, err
	}
	qk, err := kernel.Quantize(fk)
	if err != nil {
		return out, err
	}
	slab := make([]float64, 0, len(rows)*env.rawDim)
	instr := make([]uint64, len(rows))
	cycles := make([]uint64, len(rows))
	for i := range rows {
		slab = append(slab, rows[i].Raw...)
		instr[i], cycles[i] = rows[i].Instructions, rows[i].Cycles
	}
	scores := make([]float64, len(rows))
	out.floatNs = timeReps(probeTime, func() { fk.ScoreRawRows(slab, instr, cycles, scores) }) / n * 1e9
	out.quantNs = timeReps(probeTime, func() { qk.ScoreRawRows(slab, instr, cycles, scores) }) / n * 1e9
	tr.end(id)

	id = tr.begin("engine.FromBytes", parent)
	var loadErr error
	out.loadMs = timeReps(probeTime, func() {
		if _, err := engine.FromBytes(env.bundleB, env.pathB, backend); err != nil && loadErr == nil {
			loadErr = err
		}
	}) * 1e3
	tr.end(id)
	if loadErr != nil {
		return out, loadErr
	}

	id = tr.begin("engine.canary", parent)
	sc := env.genB.NewScorer()
	out.canaryMs = timeReps(probeTime, func() {
		for i := range env.canary {
			s := &env.canary[i]
			sc.Score(s.Raw, s.Instructions, s.Cycles)
		}
	}) * 1e3
	tr.end(id)

	id = tr.begin("safeio.WriteFile", parent)
	path := filepath.Join(dir, "probe-bundle.json")
	var writeErr error
	out.writeMs = timeReps(probeTime, func() {
		if err := safeio.WriteFile(path, env.bundleB, 0o644); err != nil && writeErr == nil {
			writeErr = err
		}
	}) * 1e3
	tr.end(id)
	return out, writeErr
}
