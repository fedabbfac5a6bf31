// Package defense implements the paper's adaptive architecture: the
// processor runs unprotected (performance mode) while the hardware detector
// watches the HPC stream; on a malicious flag it switches the configured
// mitigation on (secure mode) for a fixed instruction window, then falls
// back to performance mode. This gating is what cuts InvisiSpec's 27%
// always-on overhead to ~1.3% and Fencing's 74% to ~3.5% while keeping
// leakage at zero.
package defense

import (
	"evax/internal/hpc"
	"evax/internal/isa"
	"evax/internal/sim"
)

// Flagger is the detection interface the controller consults once per
// sampling window. Implementations wrap a detector plus the corpus
// normalizer (see NewDetectorFlagger in this package's adapter file).
//
// FlagWindow must be a pure function of its sample: the same window gets
// the same verdict whenever, and however often, it is scored. Gate.Run
// relies on it: a gated run that flags at window k has scored windows
// 0..k, and the protected run it falls back to scores them again from
// instruction 0.
type Flagger interface {
	// FlagWindow inspects one HPC sampling window and reports whether
	// mitigation should engage.
	FlagWindow(s hpc.Sample) bool
}

// FlaggerFunc adapts a function to Flagger.
type FlaggerFunc func(hpc.Sample) bool

// FlagWindow implements Flagger.
func (f FlaggerFunc) FlagWindow(s hpc.Sample) bool { return f(s) }

// AlwaysOn is the baseline policy: mitigation never disengages.
var AlwaysOn = FlaggerFunc(func(hpc.Sample) bool { return true })

// NeverOn runs fully unprotected (the insecure performance baseline).
var NeverOn = FlaggerFunc(func(hpc.Sample) bool { return false })

// Config parameterizes the adaptive controller.
type Config struct {
	// SecurePolicy engages on a flag.
	SecurePolicy sim.Policy
	// SecureWindow is how many instructions stay in secure mode after
	// each flag (paper evaluates 10k, 100k and 1M).
	SecureWindow uint64
	// SampleInterval is the detector's sampling cadence in instructions.
	SampleInterval uint64
	// Quantum is how many cycles to advance between controller checks.
	Quantum uint64
}

// DefaultConfig uses the paper's headline setting: 1M-instruction secure
// windows sampled every 10k instructions.
func DefaultConfig(policy sim.Policy) Config {
	return Config{
		SecurePolicy:   policy,
		SecureWindow:   1_000_000,
		SampleInterval: 10_000,
		Quantum:        512,
	}
}

// IPCPoint is one timeline sample of the run.
type IPCPoint struct {
	Instructions uint64
	IPC          float64 // IPC over the window ending here
	Secure       bool    // secure mode active during the window
	Flagged      bool    // detector flagged this window
}

// Result summarizes an adaptive run.
type Result struct {
	Timeline        []IPCPoint
	Instructions    uint64
	Cycles          uint64
	Flags           int    // windows flagged malicious
	Windows         int    // windows observed
	SecureInstr     uint64 // instructions executed in secure mode
	LeakedTransient uint64 // transient loads that touched the cache
	IPC             float64
}

// FlagRate returns flags per window.
func (r Result) FlagRate() float64 {
	if r.Windows == 0 {
		return 0
	}
	return float64(r.Flags) / float64(r.Windows)
}

// Controller drives one machine under adaptive protection.
type Controller struct {
	cfg Config
	m   *sim.Machine
	fl  Flagger

	sampler     *hpc.Sampler
	secureUntil uint64

	// record keeps every scored window in recorded (see Record).
	record   bool
	recorded []hpc.Sample
}

// NewController wraps a machine with a detector and a mitigation policy.
func NewController(m *sim.Machine, fl Flagger, cfg Config) *Controller {
	return &Controller{cfg: cfg, m: m, fl: fl}
}

func (c *Controller) init() {
	if c.sampler == nil {
		c.sampler = hpc.NewSampler(sim.CounterCatalog(), c.m, c.cfg.SampleInterval)
		c.sampler.Take()
	}
}

// Run executes up to maxInstr instructions under adaptive protection and
// returns the run summary.
func (c *Controller) Run(maxInstr uint64) Result {
	c.init()
	var res Result
	quantum := c.cfg.Quantum
	if quantum == 0 {
		quantum = 512
	}
	lastInstr, lastCycle := c.m.Instructions(), c.m.Cycles()
	secureAtWindowStart := c.m.Policy() != sim.PolicyNone
	for !c.m.Done() && c.m.Instructions() < maxInstr {
		before := c.m.Instructions()
		secureQuantum := c.m.Policy() != sim.PolicyNone
		c.m.RunCycles(quantum)
		if secureQuantum {
			res.SecureInstr += c.m.Instructions() - before
		}
		if !c.sampler.Due() {
			continue
		}
		sample, ok := c.sampler.Take()
		if !ok {
			continue
		}
		res.Windows++
		if c.record {
			c.recorded = append(c.recorded, sample)
		}
		flagged := c.fl.FlagWindow(sample)
		if flagged {
			res.Flags++
			c.m.SetPolicy(c.cfg.SecurePolicy)
			c.secureUntil = c.m.Instructions() + c.cfg.SecureWindow
		} else if c.m.Instructions() >= c.secureUntil {
			c.m.SetPolicy(sim.PolicyNone)
		}
		instr, cyc := c.m.Instructions(), c.m.Cycles()
		var ipc float64
		if cyc > lastCycle {
			ipc = float64(instr-lastInstr) / float64(cyc-lastCycle)
		}
		res.Timeline = append(res.Timeline, IPCPoint{
			Instructions: instr,
			IPC:          ipc,
			Secure:       secureAtWindowStart,
			Flagged:      flagged,
		})
		secureAtWindowStart = c.m.Policy() != sim.PolicyNone
		lastInstr, lastCycle = instr, cyc
	}
	res.Instructions = c.m.Instructions()
	res.Cycles = c.m.Cycles()
	res.LeakedTransient = c.m.C.LeakedTransientLoads
	res.IPC = c.m.IPC()
	return res
}

// RunProgram is a convenience: build a machine for prog, run it adaptively
// to completion (or maxInstr), return the result.
func RunProgram(cfg sim.Config, prog *isa.Program, fl Flagger, dcfg Config, maxInstr uint64) Result {
	m := sim.New(cfg, prog)
	return NewController(m, fl, dcfg).Run(maxInstr)
}

// Overhead computes relative slowdown in cycles versus a baseline run of
// the same committed instruction count: (cycles/instr) ratio - 1.
func Overhead(protected, baseline Result) float64 {
	if baseline.Cycles == 0 || protected.Instructions == 0 || baseline.Instructions == 0 {
		return 0
	}
	cpiP := float64(protected.Cycles) / float64(protected.Instructions)
	cpiB := float64(baseline.Cycles) / float64(baseline.Instructions)
	return cpiP/cpiB - 1
}
