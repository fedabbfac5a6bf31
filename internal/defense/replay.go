package defense

import (
	"evax/internal/hpc"
	"evax/internal/isa"
	"evax/internal/sim"
)

// Recording is a NeverOn run kept for replay: its Result, every sampling
// window the controller scored, and the identity of the run (machine
// config, program, instruction budget, sampling cadence and quantum).
//
// A gated run is the NeverOn run until its first flag: the flagger only
// reads samples, and the machine changes only on SetPolicy, which the
// controller calls with a secure policy only on a flag. NeverOn never reads
// Config.SecurePolicy or Config.SecureWindow, so one recording serves every
// policy and every secure window.
type Recording struct {
	cfg      sim.Config
	prog     *isa.Program
	maxInstr uint64
	interval uint64
	quantum  uint64
	res      Result
	windows  []hpc.Sample
}

// Record runs prog unprotected (NeverOn) for up to maxInstr instructions
// under dcfg's sampling cadence and quantum, and keeps every window for
// Recording.Gate. The program is retained: a gated run that flags
// re-simulates it.
func Record(cfg sim.Config, prog *isa.Program, dcfg Config, maxInstr uint64) *Recording {
	c := NewController(sim.New(cfg, prog), NeverOn, dcfg)
	c.record = true
	res := c.Run(maxInstr)
	return &Recording{
		cfg:      cfg,
		prog:     prog,
		maxInstr: maxInstr,
		interval: dcfg.SampleInterval,
		quantum:  dcfg.Quantum,
		res:      res,
		windows:  c.recorded,
	}
}

// Result is the recorded NeverOn run's summary. Its Timeline is shared with
// the recording and with every Gate.Run that does not flag: do not modify
// it.
func (r *Recording) Result() Result { return r.res }

// firstFlag scores the recorded windows in order and returns the index of
// the first one fl flags, or -1. Zero allocations for an allocation-free
// flagger.
//
//evaxlint:hotpath
func (r *Recording) firstFlag(fl Flagger) int {
	for i := range r.windows {
		if fl.FlagWindow(r.windows[i]) {
			return i
		}
	}
	return -1
}

// Gate is a recording scored by one flagger. The windows are scored once,
// in Recording.Gate; Run then yields the gated run under any policy, so the
// figure drivers score one recording once and call Run per policy.
type Gate struct {
	rec   *Recording
	fl    Flagger
	first int
}

// Gate scores every recorded window with fl, up to the first flag.
func (r *Recording) Gate(fl Flagger) Gate {
	return Gate{rec: r, fl: fl, first: r.firstFlag(fl)}
}

// FirstFlag is the index of the first window the flagger flagged, or -1.
func (g Gate) FirstFlag() int { return g.first }

// Run returns the Result RunProgram would for the recorded program, config
// and budget gated by the flagger under dcfg. If no window flagged, that is
// the recording itself. On a flag the protected run re-simulates from
// instruction 0, scoring windows 0..FirstFlag a second time, which is why
// a Flagger must be a pure function of its sample. Run panics if dcfg's
// SampleInterval or Quantum differ from the recording's.
func (g Gate) Run(dcfg Config) Result {
	r := g.rec
	if dcfg.SampleInterval != r.interval || dcfg.Quantum != r.quantum {
		panic("defense: replay cadence differs from the recording's")
	}
	if g.first < 0 {
		return r.res
	}
	return RunProgram(r.cfg, r.prog, g.fl, dcfg, r.maxInstr)
}
