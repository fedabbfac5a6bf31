// Package evax's top-level benchmarks regenerate every table and figure of
// the paper's evaluation (one benchmark per artifact — see DESIGN.md's
// experiment index) plus the ablations DESIGN.md calls out, and measure the
// core substrates. Custom metrics carry each experiment's headline number
// alongside wall-clock time, e.g.
//
//	go test -bench=Figure16 -benchmem
//
// reports the gated and always-on overheads as auc/ovh metrics.
package evax

import (
	"runtime"
	"sync"
	"testing"

	"evax/internal/attacks"
	"evax/internal/dataset"
	"evax/internal/defense"
	"evax/internal/detect"
	"evax/internal/experiments"
	"evax/internal/hpc"
	"evax/internal/isa"
	"evax/internal/perceptron"
	"evax/internal/sim"
	"evax/internal/workload"
)

var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
)

func lab(b *testing.B) *experiments.Lab {
	b.Helper()
	benchLabOnce.Do(func() { benchLab = experiments.NewLab(experiments.QuickLabOptions()) })
	return benchLab
}

// --- Substrate benchmarks -------------------------------------------------

// BenchmarkSimulatorThroughput measures raw committed instructions per
// second on a mixed benign kernel.
func BenchmarkSimulatorThroughput(b *testing.B) {
	alloc0 := totalAlloc()
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		m := sim.New(sim.DefaultConfig(), workload.Compress(1, 2))
		m.Run(2_000_000)
		instr += m.Instructions()
	}
	reportSimRate(b, instr, alloc0)
	b.ReportMetric(float64(instr)/float64(b.N), "instr/op")
}

// BenchmarkAttackSimulation runs the full Spectre gadget to completion.
func BenchmarkAttackSimulation(b *testing.B) {
	alloc0 := totalAlloc()
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		m := sim.New(sim.DefaultConfig(), attacks.SpectrePHT(11, 4))
		m.Run(2_000_000)
		if m.C.LeakedTransientLoads == 0 {
			b.Fatal("attack inert")
		}
		instr += m.Instructions()
	}
	reportSimRate(b, instr, alloc0)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// reportSimRate reports simulated throughput in committed instructions per
// second and heap bytes allocated per committed instruction (machine
// construction included), the units perfbench's sim.minstr_per_s and
// sim.alloc_b_per_instr use.
func reportSimRate(b *testing.B, instr, alloc0 uint64) {
	b.StopTimer()
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
	b.ReportMetric(float64(totalAlloc()-alloc0)/float64(instr), "B/instr")
}

// BenchmarkDetectorInference measures one EVAX classification (the paper's
// HW does this in a few hundred cycles; here it is the software model).
func BenchmarkDetectorInference(b *testing.B) {
	l := lab(b)
	derived := l.DS.Samples[0].Derived
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.EVAX.Score(derived)
	}
}

// BenchmarkPerceptronHW measures the quantized hardware-model evaluation
// and reports its serial-adder latency estimate.
func BenchmarkPerceptronHW(b *testing.B) {
	p := perceptron.New(145)
	for i := range p.W {
		p.W[i] = float64(i%5) - 2
	}
	q := p.Quantize()
	bits := make([]float64, 145)
	for i := range bits {
		if i%3 == 0 {
			bits[i] = 1
		}
	}
	b.ReportMetric(float64(q.LatencyCycles()), "hw-cycles")
	b.ReportMetric(float64(q.TransistorEstimate()), "transistors")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Predict(bits)
	}
}

// BenchmarkGANGenerate measures conditional sample generation.
func BenchmarkGANGenerate(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.GAN.Generate(i % 22)
	}
}

// BenchmarkCorpusCollection measures dataset construction from one program.
func BenchmarkCorpusCollection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := dataset.Collect(sim.DefaultConfig(), workload.AStar(1, 1), 2000, 40_000)
		if len(s) == 0 {
			b.Fatal("no samples")
		}
	}
}

// --- One benchmark per paper artifact --------------------------------------

// BenchmarkTableI_FeatureEngineering regenerates the engineered security
// HPC list from the trained generator.
func BenchmarkTableI_FeatureEngineering(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.TableI(l)
		if len(r.Features) != 12 {
			b.Fatalf("mined %d features", len(r.Features))
		}
	}
}

// BenchmarkTableII_Parameters regenerates the architecture table.
func BenchmarkTableII_Parameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.TableII().Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure6_GramMatrices regenerates the style-interpretability
// comparison and reports both losses.
func BenchmarkFigure6_GramMatrices(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	var r experiments.Figure6Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure6(l)
	}
	b.ReportMetric(r.LossBC, "Lgm-same")
	b.ReportMetric(r.LossAC, "Lgm-cross")
}

// BenchmarkFigure7_StyleLoss regenerates the training-quality trace.
func BenchmarkFigure7_StyleLoss(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	var r experiments.Figure7Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure7(l)
	}
	b.ReportMetric(r.InitialStyleLoss, "Lgm-initial")
	b.ReportMetric(r.StyleLoss[len(r.StyleLoss)-1], "Lgm-final")
}

// BenchmarkFigure9to11_ComplexHPCs regenerates the feature-separation rows.
func BenchmarkFigure9to11_ComplexHPCs(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(experiments.Figure9to11(l).Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFigure14_AdaptiveIPC regenerates the adaptive-architecture IPC
// comparison, its detector-free reference runs included, and reports EVAX's
// IPC share of baseline. The reference runs serve Figures 14 and 16 alike,
// so each iteration also re-simulates Figure 16's.
func BenchmarkFigure14_AdaptiveIPC(b *testing.B) {
	l := lab(b)
	experiments.Figure14(l) // runs or waits out the reference runs
	b.ResetTimer()
	var r experiments.Figure14Result
	for i := 0; i < b.N; i++ {
		l.DropReferenceRuns() // time the simulation, not replay alone
		r = experiments.Figure14(l)
	}
	for _, s := range r.Series {
		if s.Name == "EVAX-SpectreSafe" {
			b.ReportMetric(s.MeanIPC/r.Baseline, "ipc-share")
		}
	}
}

// BenchmarkFigure15_FalseRates regenerates the FP/FN study and reports
// EVAX's false positives per 10k instructions.
func BenchmarkFigure15_FalseRates(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	var r experiments.Figure15Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure15(l)
	}
	for _, row := range r.Rows {
		if row.Detector == "EVAX" && row.Interval == l.Opts.Corpus.Interval {
			b.ReportMetric(row.FPPer10K, "fp-per-10k")
			b.ReportMetric(row.FNPer10K, "fn-per-10k")
		}
	}
}

// BenchmarkFigure16_EndToEnd regenerates the overhead comparison, its
// detector-free reference runs included (Figure 14's too: both figures share
// them), and reports the always-on and EVAX-gated fencing overheads.
func BenchmarkFigure16_EndToEnd(b *testing.B) {
	l := lab(b)
	experiments.Figure16(l) // runs or waits out the reference runs
	b.ResetTimer()
	var r experiments.Figure16Result
	for i := 0; i < b.N; i++ {
		l.DropReferenceRuns() // time the simulation, not replay alone
		r = experiments.Figure16(l)
	}
	for _, row := range r.Rows {
		if row.Policy == sim.PolicyFenceAfterBranch {
			switch row.Gating {
			case "always-on":
				b.ReportMetric(row.Overhead, "fence-ovh")
			case "evax":
				b.ReportMetric(row.Overhead, "gated-ovh")
			}
		}
	}
}

// BenchmarkFigure17_ROC regenerates the evasive-tool resilience study and
// reports both detectors' mean AUC.
func BenchmarkFigure17_ROC(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	var r experiments.Figure17Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure17(l, 4)
	}
	b.ReportMetric(r.MeanAUCPerSpectron, "auc-perspectron")
	b.ReportMetric(r.MeanAUCEVAX, "auc-evax")
}

// BenchmarkFigure18_AML regenerates the adversarial-ML study.
func BenchmarkFigure18_AML(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	var r experiments.Figure18Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure18(l)
	}
	b.ReportMetric(r.AccPFuzzer, "acc-pfuzzer")
	b.ReportMetric(r.AccEVAX, "acc-evax")
}

// BenchmarkFigure19_KFold regenerates a 3-fold subset of the zero-day
// cross-validation (the full 21 folds run via evaxbench -exp fig19).
func BenchmarkFigure19_KFold(b *testing.B) {
	l := lab(b)
	folds := []isa.Class{isa.ClassMeltdown, isa.ClassDRAMA, isa.ClassFlushConflict}
	b.ResetTimer()
	var r experiments.Figure19Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure19(l, folds)
	}
	b.ReportMetric(r.MeanPerSpec, "err-perspectron")
	b.ReportMetric(r.MeanEVAX, "err-evax")
}

// BenchmarkFigure20_DeepNets regenerates the deep-detector study.
func BenchmarkFigure20_DeepNets(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	var r experiments.Figure20Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure20(l, []int{1, 8})
	}
	for _, row := range r.Rows {
		if row.HiddenLayers == 8 && row.Training == "evax" {
			b.ReportMetric(row.MedianAcc, "deep-evax-median")
		}
	}
}

// BenchmarkZeroDayTPR regenerates the §VIII-C zero-day table for the
// highlighted classes.
func BenchmarkZeroDayTPR(b *testing.B) {
	l := lab(b)
	classes := []isa.Class{isa.ClassRDRANDCovert, isa.ClassFlushConflict, isa.ClassDRAMA}
	b.ResetTimer()
	var r experiments.ZeroDayResult
	for i := 0; i < b.N; i++ {
		r = experiments.ZeroDayTPR(l, classes)
	}
	for _, row := range r.Rows {
		if row.Class == isa.ClassFlushConflict {
			b.ReportMetric(row.TPREVAX, "tpr-evax")
			b.ReportMetric(row.TPRPerSpec, "tpr-perspectron")
		}
	}
}

// --- Ablations (DESIGN.md §6) ----------------------------------------------

// BenchmarkAblationROBWindow sweeps the ROB size and reports the transient
// leakage a Spectre gadget achieves — the paper's observation that the
// transient window (and hence the evasion space) is bounded by the ROB.
func BenchmarkAblationROBWindow(b *testing.B) {
	for _, rob := range []int{32, 96, 192} {
		rob := rob
		b.Run(map[int]string{32: "rob32", 96: "rob96", 192: "rob192"}[rob], func(b *testing.B) {
			var leaks uint64
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig()
				cfg.ROBEntries = rob
				m := sim.New(cfg, attacks.SpectrePHT(11, 4))
				m.Run(2_000_000)
				leaks = m.C.LeakedTransientLoads
			}
			b.ReportMetric(float64(leaks), "transient-leaks")
		})
	}
}

// BenchmarkAblationSamplingRate sweeps the detector sampling cadence and
// reports windows produced per attack run (finer cadence = earlier
// detection opportunity; the paper samples down to every 100 instructions).
func BenchmarkAblationSamplingRate(b *testing.B) {
	for _, interval := range []uint64{100, 1000, 10000} {
		interval := interval
		name := map[uint64]string{100: "every100", 1000: "every1k", 10000: "every10k"}[interval]
		b.Run(name, func(b *testing.B) {
			var windows int
			for i := 0; i < b.N; i++ {
				s := dataset.Collect(sim.DefaultConfig(), attacks.Meltdown(11, 20), interval, 60_000)
				windows = len(s)
			}
			b.ReportMetric(float64(windows), "windows")
		})
	}
}

// BenchmarkAblationFeatureSets compares detector accuracy across the
// 106-feature (PerSpectron), 133-feature (EVAX base) and 145-feature
// (EVAX + engineered) spaces on the held-out corpus.
func BenchmarkAblationFeatureSets(b *testing.B) {
	l := lab(b)
	eval := l.EvalCorpus(8800)
	sets := []struct {
		name string
		fs   *detect.FeaturePlan
	}{
		{"feat106", detect.PerSpectron()},
		{"feat133", detect.EVAXBase()},
		{"feat145", func() *detect.FeaturePlan {
			fs := detect.EVAXBase()
			fs.SetEngineered(detect.DefaultEngineered(fs))
			return fs
		}()},
	}
	for _, set := range sets {
		set := set
		b.Run(set.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				d := detect.NewPerceptron(1, set.fs)
				idx := make([]int, len(l.DS.Samples))
				for k := range idx {
					idx[k] = k
				}
				d.Train(l.DS, idx, detect.DefaultTrainOptions())
				correct := 0
				for k := range eval {
					if d.Flag(eval[k].Derived) == eval[k].Malicious {
						correct++
					}
				}
				acc = float64(correct) / float64(len(eval))
			}
			b.ReportMetric(acc, "accuracy")
		})
	}
}

// BenchmarkAblationSecureWindow sweeps the paper's secure-mode window
// lengths (10k/100k/1M instructions) under a rare-flag workload and
// reports the overhead of each.
func BenchmarkAblationSecureWindow(b *testing.B) {
	for _, win := range []uint64{10_000, 100_000, 1_000_000} {
		win := win
		name := map[uint64]string{10_000: "win10k", 100_000: "win100k", 1_000_000: "win1M"}[win]
		b.Run(name, func(b *testing.B) {
			var ovh float64
			for i := 0; i < b.N; i++ {
				dcfg := defense.DefaultConfig(sim.PolicyFenceAfterBranch)
				dcfg.SecureWindow = win
				dcfg.SampleInterval = 2000
				count := 0
				rare := defense.FlaggerFunc(func(hpc.Sample) bool {
					count++
					return count%20 == 0
				})
				base := defense.RunProgram(sim.DefaultConfig(), workload.Stream(1, 3), defense.NeverOn, dcfg, 400_000)
				prot := defense.RunProgram(sim.DefaultConfig(), workload.Stream(1, 3), rare, dcfg, 400_000)
				ovh = defense.Overhead(prot, base)
			}
			b.ReportMetric(ovh, "overhead")
		})
	}
}

// BenchmarkAblationPrefetcher compares streaming performance and the
// Flush+Reload attack's transient leakage with the stride prefetcher off
// and on — prefetching both hides memory latency and perturbs cache-timing
// channels.
func BenchmarkAblationPrefetcher(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var cycles uint64
			var leaks uint64
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig()
				cfg.Prefetcher.Enabled = on
				m := sim.New(cfg, workload.Stream(1, 2))
				m.Run(2_000_000)
				cycles = m.Cycles()
				ma := sim.New(cfg, attacks.SpectrePHT(11, 4))
				ma.Run(2_000_000)
				leaks = ma.C.LeakedTransientLoads
			}
			b.ReportMetric(float64(cycles), "stream-cycles")
			b.ReportMetric(float64(leaks), "transient-leaks")
		})
	}
}
