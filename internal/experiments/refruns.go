package experiments

import (
	"sync"

	"evax/internal/dataset"
	"evax/internal/defense"
	"evax/internal/detect"
	"evax/internal/runner"
	"evax/internal/sim"
	"evax/internal/workload"
)

// Figures 14 and 16 run the benign suite with unseen seeds for this many
// instructions per workload.
const (
	fig14Instr = 200_000
	fig16Instr = 150_000
)

// fig14AlwaysOn is Figure 14's always-on mitigation.
const fig14AlwaysOn = sim.PolicyInvisiSpecSpectre

// fig16Policies are Figure 16's mitigations, in row order.
var fig16Policies = []struct {
	name   string
	policy sim.Policy
}{
	{"Fences-SpectreSafe", sim.PolicyFenceAfterBranch},
	{"InvisiSpec-Spectre", sim.PolicyInvisiSpecSpectre},
	{"Fences-FuturisticSafe", sim.PolicyFenceBeforeLoad},
	{"InvisiSpec-Futuristic", sim.PolicyInvisiSpecFuturistic},
}

// gatingConfig is the controller setting of Figures 14 and 16: the corpus's
// sampling cadence and a 20k-instruction secure window.
func gatingConfig(interval uint64, policy sim.Policy) defense.Config {
	dcfg := defense.DefaultConfig(policy)
	dcfg.SampleInterval = interval
	dcfg.SecureWindow = 20_000
	return dcfg
}

// The benign reference runs are the detector-free runs of Figures 14 and
// 16: unprotected baselines, NeverOn recordings and always-on runs. None
// depends on a trained detector, so with a core to spare NewLab runs them in
// the background during training, and the figures only replay detector
// scoring over the recordings (see defense.Replay). A gated run falls back
// to a full protected simulation only when its detector flags a recorded
// window.

// benignRef is one suite workload's reference runs for both figures.
type benignRef struct {
	// Figure 14. baseIPC is a plain machine run, not a controller run: the
	// controller overshoots maxInstr by up to a quantum.
	baseIPC  float64
	rec14    *defense.Recording // NeverOn at fig14Instr
	always14 defense.Result     // fig14AlwaysOn, always on

	// Figure 16.
	rec16    *defense.Recording // NeverOn at fig16Instr: every row's baseline
	always16 []defense.Result   // always on, per fig16Policies
}

// startRefs launches the reference runs as one background fan-out
// (runner.Start) with one job per suite workload.
func startRefs(o runner.Options, c dataset.CorpusOptions) *runner.Pending[benignRef] {
	suite := workload.All()
	return runner.Start(o, len(suite), func(wi int) benignRef {
		// Unseen seeds; a NeverOn recording reads no policy.
		p, cfg := suite[wi].Build(int64(wi)*37+901, c.Scale), sim.DefaultConfig()
		recCfg := gatingConfig(c.Interval, sim.PolicyNone)
		m := sim.New(cfg, p)
		m.Run(fig14Instr)
		r := benignRef{
			baseIPC:  m.IPC(),
			rec14:    defense.Record(cfg, p, recCfg, fig14Instr),
			always14: defense.RunProgram(cfg, p, defense.AlwaysOn, gatingConfig(c.Interval, fig14AlwaysOn), fig14Instr),
			rec16:    defense.Record(cfg, p, recCfg, fig16Instr),
		}
		for _, pol := range fig16Policies {
			dcfg := gatingConfig(c.Interval, pol.policy)
			r.always16 = append(r.always16, defense.RunProgram(cfg, p, defense.AlwaysOn, dcfg, fig16Instr))
		}
		return r
	})
}

// refCache is a lab's handle on its reference runs. Copies of a Lab share
// it: the runs depend on the corpus options, not on detectors.
type refCache struct {
	mu sync.Mutex
	p  *runner.Pending[benignRef]
}

// overlapReferenceRuns starts the reference runs in the background if the
// lab has a worker to spare for them, and returns a func that yields the
// runs not yet claimed to whichever figure first asks for them. NewLab
// brackets training with it. With one worker nothing would overlap, so
// nothing starts: the first figure runs them.
func (lab *Lab) overlapReferenceRuns() (yield func()) {
	if lab.runnerOpts().Workers(len(workload.All())) == 1 {
		return func() {}
	}
	p := startRefs(lab.runnerOpts(), lab.Opts.Corpus)
	lab.refs.mu.Lock()
	defer lab.refs.mu.Unlock()
	lab.refs.p = p
	return p.Yield
}

// DropReferenceRuns discards the lab's benign reference runs, so the next
// Figure14 or Figure16 call simulates them again. Benchmarks drop them on
// every iteration to time the figures' simulation, not replay alone.
func (lab *Lab) DropReferenceRuns() {
	lab.refs.mu.Lock()
	defer lab.refs.mu.Unlock()
	if lab.refs.p != nil {
		lab.refs.p.Yield()
	}
	lab.refs.p = nil
}

// referenceRuns waits for the reference runs, starting them first if the
// lab holds none.
func (lab *Lab) referenceRuns() []benignRef {
	r := lab.refs
	r.mu.Lock()
	if r.p == nil {
		r.p = startRefs(lab.runnerOpts(), lab.Opts.Corpus)
	}
	p := r.p
	r.mu.Unlock()
	return p.Wait()
}

// gates scores every recording once per detector, through a flagger around
// a private clone (scoring mutates forward-pass scratch). A Gate's verdicts
// serve every policy. Only a flagged recording re-simulates, in Gate.Run,
// inside the figure's fan-out; each job there runs its own workload's gate.
func (lab *Lab) gates(recs []*defense.Recording, dets ...*detect.Detector) map[*detect.Detector][]defense.Gate {
	out := make(map[*detect.Detector][]defense.Gate, len(dets))
	for _, d := range dets {
		gs := make([]defense.Gate, len(recs))
		for wi, rec := range recs {
			gs[wi] = rec.Gate(defense.NewDetectorFlagger(d.Clone(), lab.DS))
		}
		out[d] = gs
	}
	return out
}
