package experiments

import (
	"evax/internal/defense"
	"evax/internal/detect"
	"evax/internal/metrics"
	"evax/internal/runner"
	"evax/internal/sim"
	"evax/internal/workload"
)

// figure14Oracle is Figure14 as it was before the benign reference runs:
// every configuration re-simulates the suite. It stays, verbatim, as the
// oracle the replaying driver must match.
func figure14Oracle(lab *Lab) Figure14Result {
	// detector selects the per-job gating detector: flaggers score through
	// the sampling window, which mutates forward-pass scratch, so each
	// (config, workload) job builds a flagger around a private clone.
	configs := []struct {
		name     string
		detector func() *detect.Detector // nil: always-on gating
		policy   sim.Policy
	}{
		{"InvisiSpec (always on)", nil, sim.PolicyInvisiSpecSpectre},
		{"PerSpectron-SpectreSafe", lab.PerSpec.Clone, sim.PolicyFenceAfterBranch},
		{"EVAX-SpectreSafe", lab.EVAX.Clone, sim.PolicyFenceAfterBranch},
		{"EVAX-SafeSpec (InvisiSpec)", lab.EVAX.Clone, sim.PolicyInvisiSpecSpectre},
		{"EVAX-FuturisticSafeFence", lab.EVAX.Clone, sim.PolicyFenceBeforeLoad},
	}
	res := Figure14Result{}
	const maxInstr = 200_000
	suite := workload.All()
	baseIPC := runner.Map(lab.runnerOpts(), len(suite), func(wi int) float64 {
		p := suite[wi].Build(int64(wi)*37+901, lab.Opts.Corpus.Scale)
		m := sim.New(sim.DefaultConfig(), p)
		m.Run(maxInstr)
		return m.IPC()
	})
	res.Baseline = metrics.Mean(baseIPC)
	for _, cfg := range configs {
		dcfg := defense.DefaultConfig(cfg.policy)
		dcfg.SampleInterval = lab.Opts.Corpus.Interval
		dcfg.SecureWindow = 20_000
		type workloadRun struct {
			ipc      float64
			timeline []defense.IPCPoint
		}
		runs := runner.Map(lab.runnerOpts(), len(suite), func(wi int) workloadRun {
			fl := defense.Flagger(defense.AlwaysOn)
			if cfg.detector != nil {
				fl = defense.NewDetectorFlagger(cfg.detector(), lab.DS)
			}
			p := suite[wi].Build(int64(wi)*37+901, lab.Opts.Corpus.Scale)
			r := defense.RunProgram(sim.DefaultConfig(), p, fl, dcfg, maxInstr)
			return workloadRun{ipc: r.IPC, timeline: r.Timeline}
		})
		ipcs := make([]float64, len(runs))
		for wi, r := range runs {
			ipcs[wi] = r.ipc
		}
		res.Series = append(res.Series, Figure14Series{
			Name:     cfg.name,
			MeanIPC:  metrics.Mean(ipcs),
			Timeline: runs[0].timeline, // representative workload
		})
	}
	return res
}

// figure16Oracle is Figure16 as it was before the benign reference runs:
// every row re-simulates its NeverOn baseline and its gated runs. It stays,
// verbatim, as the oracle the replaying driver must match.
func figure16Oracle(lab *Lab) Figure16Result {
	const maxInstr = 150_000
	policies := []struct {
		name   string
		policy sim.Policy
	}{
		{"Fences-SpectreSafe", sim.PolicyFenceAfterBranch},
		{"InvisiSpec-Spectre", sim.PolicyInvisiSpecSpectre},
		{"Fences-FuturisticSafe", sim.PolicyFenceBeforeLoad},
		{"InvisiSpec-Futuristic", sim.PolicyInvisiSpecFuturistic},
	}

	// run fans the benign suite out over the engine; detector is nil for
	// always-on gating, otherwise each (workload) job wraps a private
	// detector clone (scoring mutates forward-pass scratch). Per-workload
	// overheads merge in suite order before the mean, so the row is
	// byte-identical to the sequential sweep.
	run := func(detector func() *detect.Detector, policy sim.Policy) float64 {
		dcfg := defense.DefaultConfig(policy)
		dcfg.SampleInterval = lab.Opts.Corpus.Interval
		dcfg.SecureWindow = 20_000
		suite := workload.All()
		ovs := runner.Map(lab.runnerOpts(), len(suite), func(wi int) float64 {
			fl := defense.Flagger(defense.AlwaysOn)
			if detector != nil {
				fl = defense.NewDetectorFlagger(detector(), lab.DS)
			}
			p := suite[wi].Build(int64(wi)*37+901, lab.Opts.Corpus.Scale)
			base := defense.RunProgram(sim.DefaultConfig(), suite[wi].Build(int64(wi)*37+901, lab.Opts.Corpus.Scale), defense.NeverOn, dcfg, maxInstr)
			prot := defense.RunProgram(sim.DefaultConfig(), p, fl, dcfg, maxInstr)
			return defense.Overhead(prot, base)
		})
		return metrics.Mean(ovs)
	}

	var res Figure16Result
	for _, pol := range policies {
		always := run(nil, pol.policy)
		ev := run(lab.EVAX.Clone, pol.policy)
		ps := run(lab.PerSpec.Clone, pol.policy)
		res.Rows = append(res.Rows,
			Figure16Row{pol.name, pol.policy, "always-on", always, 0},
			Figure16Row{"PerSpectron-" + pol.name, pol.policy, "perspectron", ps, 1 - safeDiv(ps, always)},
			Figure16Row{"EVAX-" + pol.name, pol.policy, "evax", ev, 1 - safeDiv(ev, always)},
		)
	}
	return res
}
