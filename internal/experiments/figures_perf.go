package experiments

import (
	"fmt"
	"strings"

	"evax/internal/dataset"
	"evax/internal/defense"
	"evax/internal/detect"
	"evax/internal/fmath"
	"evax/internal/isa"
	"evax/internal/metrics"
	"evax/internal/runner"
	"evax/internal/sim"
)

// EvalCorpus collects a fresh corpus from unseen program instances (a seed
// offset no training program used) and normalizes it with the lab's
// training maxima — the held-out evaluation traffic for Figures 14–16.
func (lab *Lab) EvalCorpus(seedOffset int64) []dataset.Sample {
	o := lab.Opts.Corpus
	o.SeedOffset = seedOffset
	samples := dataset.CollectAll(o)
	for i := range samples {
		lab.DS.NormalizeInPlace(samples[i].Derived)
	}
	return samples
}

// FeatureSeparationRow shows one complex HPC's mean normalized value on
// benign windows versus the attack classes it separates.
type FeatureSeparationRow struct {
	Feature    string
	BenignMean float64
	Attacks    map[isa.Class]float64
}

// Figure9to11Result holds the complex-HPC separation evidence of the
// paper's Figures 9 (stealthy cache attacks), 10 (speculative/Meltdown) and
// 11 (MDS/LVI, via the engineered SquashedBytesReadFromWRQu analogue).
type Figure9to11Result struct {
	Rows []FeatureSeparationRow
}

// Figure9to11 measures how the highlighted complex HPCs separate attack
// classes from benign execution on the training corpus.
func Figure9to11(lab *Lab) Figure9to11Result {
	fs := detect.EVAXBase()
	fs.SetEngineered(lab.Mined)
	specs := []struct {
		feature string
		classes []isa.Class
	}{
		// Fig 9: clean evictions expose stealthy cache attacks.
		{"dcache.CleanEvicts", []isa.Class{isa.ClassFlushFlush, isa.ClassFlushReload, isa.ClassPrimeProbe}},
		// Fig 10: squashed loads + spec-load store-queue hits expose
		// speculative and Meltdown-type attacks.
		{"lsq.squashedLoads", []isa.Class{isa.ClassSpectrePHT, isa.ClassMeltdown, isa.ClassSpectreRSB}},
		{"iew.MemOrderViolation", []isa.Class{isa.ClassSpectreSTL}},
		// Fig 11: the engineered assist/replay combination exposes
		// MDS-type and LVI attacks.
		{"lsq.ignoredResponses", []isa.Class{isa.ClassLVI, isa.ClassMedusaCacheIndex, isa.ClassFallout}},
	}
	var rows []FeatureSeparationRow
	for _, sp := range specs {
		pos := fs.Index(sp.feature)
		if pos < 0 {
			continue
		}
		row := FeatureSeparationRow{Feature: sp.feature, Attacks: map[isa.Class]float64{}}
		var benignSum float64
		var benignN int
		classSums := map[isa.Class]float64{}
		classN := map[isa.Class]int{}
		for i := range lab.DS.Samples {
			s := &lab.DS.Samples[i]
			v := fs.Base(s.Derived)[pos]
			if s.Class == isa.ClassBenign {
				benignSum += v
				benignN++
				continue
			}
			classSums[s.Class] += v
			classN[s.Class]++
		}
		if benignN > 0 {
			row.BenignMean = benignSum / float64(benignN)
		}
		for _, c := range sp.classes {
			if classN[c] > 0 {
				row.Attacks[c] = classSums[c] / float64(classN[c])
			}
		}
		rows = append(rows, row)
	}
	return Figure9to11Result{Rows: rows}
}

// String renders the separation table.
func (r Figure9to11Result) String() string {
	var b strings.Builder
	b.WriteString("Figures 9-11: Complex HPCs separating attack classes (mean normalized value)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-28s benign=%.4f", row.Feature, row.BenignMean)
		for c, v := range row.Attacks {
			fmt.Fprintf(&b, "  %s=%.4f", c, v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Figure14Series is one adaptive-architecture configuration's IPC behaviour.
type Figure14Series struct {
	Name     string
	MeanIPC  float64
	Timeline []defense.IPCPoint // timeline on the representative workload
}

// Figure14Result compares adaptive EVAX configurations against PerSpectron
// gating and always-on InvisiSpec (paper Figure 14).
type Figure14Result struct {
	Baseline float64 // unprotected mean IPC
	Series   []Figure14Series
}

// Figure14 runs the benign suite (unseen seeds) under each configuration
// and records IPC. The detector-free runs are the lab's reference runs; a
// gated series replays its detector over each workload's NeverOn recording
// and re-simulates only a workload whose recording it flags.
func Figure14(lab *Lab) Figure14Result {
	configs := []struct {
		name     string
		detector *detect.Detector // nil: always-on gating
		policy   sim.Policy
	}{
		{"InvisiSpec (always on)", nil, fig14AlwaysOn},
		{"PerSpectron-SpectreSafe", lab.PerSpec, sim.PolicyFenceAfterBranch},
		{"EVAX-SpectreSafe", lab.EVAX, sim.PolicyFenceAfterBranch},
		{"EVAX-SafeSpec (InvisiSpec)", lab.EVAX, sim.PolicyInvisiSpecSpectre},
		{"EVAX-FuturisticSafeFence", lab.EVAX, sim.PolicyFenceBeforeLoad},
	}
	refs := lab.referenceRuns()
	baseIPC := make([]float64, len(refs))
	recs := make([]*defense.Recording, len(refs))
	for wi := range refs {
		baseIPC[wi], recs[wi] = refs[wi].baseIPC, refs[wi].rec14
	}
	gates := lab.gates(recs, lab.PerSpec, lab.EVAX)
	res := Figure14Result{Baseline: metrics.Mean(baseIPC)}
	for _, cfg := range configs {
		dcfg := gatingConfig(lab.Opts.Corpus.Interval, cfg.policy)
		runs := runner.Map(lab.runnerOpts(), len(refs), func(wi int) defense.Result {
			if cfg.detector == nil {
				return refs[wi].always14
			}
			return gates[cfg.detector][wi].Run(dcfg)
		})
		ipcs := make([]float64, len(runs))
		for wi, r := range runs {
			ipcs[wi] = r.IPC
		}
		res.Series = append(res.Series, Figure14Series{
			Name:     cfg.name,
			MeanIPC:  metrics.Mean(ipcs),
			Timeline: runs[0].Timeline, // representative workload
		})
	}
	return res
}

// String renders the comparison.
func (r Figure14Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 14: Adaptive-architecture IPC (benign suite; unprotected baseline %.3f)\n", r.Baseline)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "  %-28s meanIPC=%.3f (%.1f%% of baseline)\n",
			s.Name, s.MeanIPC, 100*s.MeanIPC/r.Baseline)
	}
	return b.String()
}

// Figure15Row reports FP/FN behaviour for one detector at one cadence.
type Figure15Row struct {
	Detector   string
	Interval   uint64
	FPPer10K   float64 // false positives per 10k instructions
	FNPer10K   float64
	FPR, FNR   float64
	Windows    int
	AttackWnds int
}

// Figure15Result is the FP/FN distribution comparison (paper Figure 15).
type Figure15Result struct {
	Rows []Figure15Row
}

// Figure15 measures false positives and negatives per 10k instructions on
// unseen traffic for PerSpectron and EVAX at two sampling cadences. Models
// are trained at the cadence they run at (the paper trains a dedicated
// model for each sampling rate); the faster cadence's detectors are
// feature-identical retrains on a matching-interval corpus.
func Figure15(lab *Lab) Figure15Result {
	var res Figure15Result
	for _, interval := range []uint64{lab.Opts.Corpus.Interval, lab.Opts.Corpus.Interval / 4} {
		ps, ev := lab.PerSpec, lab.EVAX
		norm := lab.DS
		if interval != lab.Opts.Corpus.Interval {
			// Retrain at this cadence.
			o := lab.Opts.Corpus
			o.Interval = interval
			train := dataset.New(dataset.CollectAll(o))
			norm = train
			idx := make([]int, len(train.Samples))
			for i := range idx {
				idx[i] = i
			}
			psFS := detect.PerSpectron()
			ps = detect.NewPerceptron(lab.Opts.Seed, psFS)
			ps.Train(train, idx, detect.DefaultTrainOptions())
			evFS := detect.EVAXBase()
			evFS.SetEngineered(lab.Mined)
			ev = detect.NewPerceptron(lab.Opts.Seed, evFS)
			ev.Train(train, idx, detect.DefaultTrainOptions())
			var benignIdx []int
			for i := range train.Samples {
				if !train.Samples[i].Malicious {
					benignIdx = append(benignIdx, i)
				}
			}
			benignPS := make([]float64, len(benignIdx))
			benignEV := make([]float64, len(benignIdx))
			ps.ScoreBatch(train, benignIdx, benignPS)
			ev.ScoreBatch(train, benignIdx, benignEV)
			ps.TuneThresholdForFPR(benignPS, lab.Opts.TargetFPR)
			ev.TuneThresholdForFPR(benignEV, lab.Opts.TargetFPR)
		}
		o := lab.Opts.Corpus
		o.Interval = interval
		o.SeedOffset = 7000
		samples := dataset.CollectAll(o)
		for i := range samples {
			norm.NormalizeInPlace(samples[i].Derived)
		}
		for _, det := range []struct {
			name string
			d    *detect.Detector
		}{{"PerSpectron", ps}, {"EVAX", ev}} {
			row := Figure15Row{Detector: det.name, Interval: interval}
			var fp, fn, benignInstr, attackInstr int
			var benignWindows, attackWindows int
			for i := range samples {
				s := &samples[i]
				flag := det.d.Flag(s.Derived)
				if s.Malicious {
					attackWindows++
					attackInstr += int(s.Instructions)
					if !flag {
						fn++
					}
				} else {
					benignWindows++
					benignInstr += int(s.Instructions)
					if flag {
						fp++
					}
				}
			}
			if benignInstr > 0 {
				row.FPPer10K = float64(fp) / float64(benignInstr) * 10_000
			}
			if attackInstr > 0 {
				row.FNPer10K = float64(fn) / float64(attackInstr) * 10_000
			}
			if benignWindows > 0 {
				row.FPR = float64(fp) / float64(benignWindows)
			}
			if attackWindows > 0 {
				row.FNR = float64(fn) / float64(attackWindows)
			}
			row.Windows = benignWindows
			row.AttackWnds = attackWindows
			res.Rows = append(res.Rows, row)
		}
	}
	return res
}

// String renders the FP/FN table.
func (r Figure15Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 15: False positives / negatives on unseen traffic\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s interval=%-6d FP/10k=%.4f FN/10k=%.4f (FPR=%.4f FNR=%.4f over %d benign / %d attack windows)\n",
			row.Detector, row.Interval, row.FPPer10K, row.FNPer10K, row.FPR, row.FNR, row.Windows, row.AttackWnds)
	}
	return b.String()
}

// Figure16Row is one defense configuration's end-to-end overhead.
type Figure16Row struct {
	Name      string
	Policy    sim.Policy
	Gating    string // "always-on", "evax", "perspectron"
	Overhead  float64
	Reduction float64 // vs the always-on row of the same policy
}

// Figure16Result is the end-to-end defense performance comparison.
type Figure16Result struct {
	Rows []Figure16Row
}

// Figure16 measures the overhead of each mitigation always-on versus gated
// by the EVAX and PerSpectron detectors, over the benign suite with unseen
// seeds (performance of malicious programs is not a concern, per the paper).
// Every row's baseline is the workload's NeverOn recording, and a gated row
// replays its detector over that recording, as in Figure14.
func Figure16(lab *Lab) Figure16Result {
	refs := lab.referenceRuns()
	recs := make([]*defense.Recording, len(refs))
	for wi := range refs {
		recs[wi] = refs[wi].rec16
	}
	gates := lab.gates(recs, lab.PerSpec, lab.EVAX)

	// run fans the benign suite out for one row; detector is nil for
	// always-on gating. Per-workload overheads merge in suite order before
	// the mean, so the row is byte-identical to the sequential sweep.
	run := func(detector *detect.Detector, pi int) float64 {
		dcfg := gatingConfig(lab.Opts.Corpus.Interval, fig16Policies[pi].policy)
		ovs := runner.Map(lab.runnerOpts(), len(refs), func(wi int) float64 {
			prot := refs[wi].always16[pi]
			if detector != nil {
				prot = gates[detector][wi].Run(dcfg)
			}
			return defense.Overhead(prot, refs[wi].rec16.Result())
		})
		return metrics.Mean(ovs)
	}

	var res Figure16Result
	for pi, pol := range fig16Policies {
		always := run(nil, pi)
		ev := run(lab.EVAX, pi)
		ps := run(lab.PerSpec, pi)
		res.Rows = append(res.Rows,
			Figure16Row{pol.name, pol.policy, "always-on", always, 0},
			Figure16Row{"PerSpectron-" + pol.name, pol.policy, "perspectron", ps, 1 - safeDiv(ps, always)},
			Figure16Row{"EVAX-" + pol.name, pol.policy, "evax", ev, 1 - safeDiv(ev, always)},
		)
	}
	return res
}

func safeDiv(a, b float64) float64 {
	if fmath.Zero(b) {
		return 0
	}
	return a / b
}

// String renders the overhead table.
func (r Figure16Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 16: End-to-end defense performance (overhead vs unprotected)\n")
	for _, row := range r.Rows {
		if row.Gating == "always-on" {
			fmt.Fprintf(&b, "  %-36s overhead=%6.2f%%\n", row.Name, 100*row.Overhead)
		} else {
			fmt.Fprintf(&b, "  %-36s overhead=%6.2f%%  (%.0f%% reduction)\n",
				row.Name, 100*row.Overhead, 100*row.Reduction)
		}
	}
	return b.String()
}
