package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"time"

	"evax/internal/attacks"
	"evax/internal/dataset"
	"evax/internal/detect"
	"evax/internal/experiments"
	"evax/internal/featureng"
	"evax/internal/gan"
	"evax/internal/isa"
	"evax/internal/runner"
	"evax/internal/sim"
	"evax/internal/workload"
)

// campaignOptions is the researcher's default-scale setup, moved to the
// run's seed: corpus instances, GAN and detector initialisation all follow
// it.
func campaignOptions(seed int64) experiments.LabOptions {
	o := experiments.DefaultLabOptions()
	o.Seed = seed
	o.Corpus.SeedOffset = seed
	o.Jobs = runtime.GOMAXPROCS(0)
	return o
}

// campaignResult is one pass of corpus → lab → Figure 14 → Figure 16.
type campaignResult struct {
	seconds float64
	digest  string
	samples int
	jobs    uint64
	fanouts uint64
	lab     *experiments.Lab
}

// runCampaign times the whole offline campaign. With tracing on it also
// records a span per stage.
func runCampaign(seed int64, tr *tracer, parent int) campaignResult {
	o := campaignOptions(seed)
	before := runner.Snapshot()
	start := time.Now()

	id := tr.begin("experiments.NewLab", parent)
	lab := experiments.NewLab(o)
	tr.end(id)
	id = tr.begin("experiments.Figure14", parent)
	f14 := experiments.Figure14(lab)
	tr.end(id)
	id = tr.begin("experiments.Figure16", parent)
	f16 := experiments.Figure16(lab)
	tr.end(id)

	secs := time.Since(start).Seconds()
	after := runner.Snapshot()
	return campaignResult{
		seconds: secs,
		digest:  campaignDigest(lab, f14, f16),
		samples: len(lab.DS.Samples),
		jobs:    after.JobsRun - before.JobsRun,
		fanouts: after.FanOuts - before.FanOuts,
		lab:     lab,
	}
}

// campaignDigest folds the corpus rows and every Figure 14/16 number into
// one FNV-1a hash: a speed change must leave it untouched.
func campaignDigest(lab *experiments.Lab, f14 experiments.Figure14Result, f16 experiments.Figure16Result) string {
	h := fnv.New64a()
	for i := range lab.DS.Samples {
		s := &lab.DS.Samples[i]
		putU64(h, uint64(s.Class), s.Instructions, s.Cycles, uint64(s.Phases))
		putF64(h, s.Raw...)
	}
	putF64(h, f14.Baseline)
	for _, sr := range f14.Series {
		fold(h, []byte(sr.Name))
		putF64(h, sr.MeanIPC)
		for _, p := range sr.Timeline {
			putU64(h, p.Instructions, boolBit(p.Secure), boolBit(p.Flagged))
			putF64(h, p.IPC)
		}
	}
	for _, r := range f16.Rows {
		fold(h, []byte(r.Name+"|"+r.Gating))
		putU64(h, uint64(r.Policy))
		putF64(h, r.Overhead, r.Reduction)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// fold writes b into h.
func fold(h hash.Hash64, b []byte) {
	//evaxlint:ignore droppederr hash.Hash writes never return an error
	h.Write(b)
}

func putU64(h hash.Hash64, vals ...uint64) {
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], v)
		fold(h, b[:])
	}
}

func putF64(h hash.Hash64, vals ...float64) {
	for _, v := range vals {
		putU64(h, math.Float64bits(v))
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// campaignLayers holds the campaign's per-layer figures from the traced run.
type campaignLayers struct {
	simMinstrPerS    float64
	simInstr         uint64
	simCycles        uint64
	simAllocPerInstr float64
	collectS         float64
	collectSamples   int
	ganTrainS        float64
	mineS            float64
	detectTrainS     float64
	efficiency       float64
}

// probeCampaignLayers times the campaign's layers one at a time, calling
// each module the way experiments.NewLab does. It runs after the campaign
// and uses its lab (GeneratedAugmentation draws from the lab's generator);
// the caller must hold no other reference to the lab.
func probeCampaignLayers(seed int64, lab *experiments.Lab, tr *tracer, parent int) campaignLayers {
	o := campaignOptions(seed)
	var out campaignLayers

	// AM-GAN training on the lab's corpus, with the lab's stratified
	// per-class selection and generator shape.
	fs := detect.EVAXBase()
	vecs, classes := ganTrainingSet(lab, fs, o)
	id := tr.begin("gan.Train", parent)
	cfg := gan.DefaultConfig(fs.BaseDim(), len(lab.DS.Classes()))
	cfg.Seed = o.Seed
	cfg.GenHidden = []int{64, 48}
	g := gan.New(cfg)
	g.Train(vecs, classes, o.GANEpochs)
	out.ganTrainS = tr.end(id)

	id = tr.begin("featureng.Mine", parent)
	featureng.Mine(g.Generator(), 12, fs.FeatureOf)
	out.mineS = tr.end(id)

	// Detector training: the PerSpectron baseline on real windows, then
	// the EVAX detector on real plus generated windows.
	idx := make([]int, len(lab.DS.Samples))
	labels := make([]bool, len(idx))
	for i := range idx {
		idx[i] = i
		labels[i] = lab.DS.Samples[i].Malicious
	}
	id = tr.begin("detect.Train", parent)
	detect.NewPerceptron(o.Seed, detect.PerSpectron()).Train(lab.DS, idx, detect.DefaultTrainOptions())
	evFS := detect.EVAXBase()
	evFS.SetEngineered(lab.Mined)
	gen, genLabels := lab.GeneratedAugmentation(o.GenPerClass)
	vecs = append(evFS.GatherBatch(lab.DS, idx), gen...)
	detect.NewPerceptron(o.Seed, evFS).TrainVectors(vecs, append(labels, genLabels...), detect.DefaultTrainOptions())
	out.detectTrainS = tr.end(id)

	// The lab is no longer referenced: collect it, so the simulator probes
	// below do not pay for marking it.
	runtime.GC()

	// The simulator alone: every corpus program, sequentially, through
	// sim.New + Run, with its allocations.
	id = tr.begin("sim.Run", parent)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var simSecs float64
	for _, p := range corpusPrograms(o.Corpus) {
		t0 := time.Now()
		m := sim.New(sim.DefaultConfig(), p.build(p.seed, p.scale))
		m.Run(o.Corpus.MaxInstr)
		simSecs += time.Since(t0).Seconds()
		out.simInstr += m.Instructions()
		out.simCycles += m.Cycles()
	}
	runtime.ReadMemStats(&ms1)
	tr.end(id)
	out.simMinstrPerS = float64(out.simInstr) / simSecs / 1e6
	out.simAllocPerInstr = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(out.simInstr)

	// The corpus build with the campaign's fan-out.
	co := o.Corpus
	co.Jobs = o.Jobs
	id = tr.begin("dataset.CollectAll", parent)
	samples := dataset.CollectAll(co)
	out.collectS = tr.end(id)
	out.collectSamples = len(samples)
	out.efficiency = simSecs / (out.collectS * float64(runtime.GOMAXPROCS(0)))
	return out
}

// ganTrainingSet draws at most GANPerClass samples per class, classes in
// conditioning order, exactly as the lab does before training its AM-GAN.
func ganTrainingSet(lab *experiments.Lab, fs *detect.FeaturePlan, o experiments.LabOptions) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(o.Seed + 7))
	classList := lab.DS.Classes()
	var idx, classes []int
	for ci, c := range classList {
		members := lab.DS.ByClass(c)
		perm := rng.Perm(len(members))
		n := min(o.GANPerClass, len(members))
		for _, p := range perm[:n] {
			idx = append(idx, members[p])
			classes = append(classes, ci)
		}
	}
	return fs.GatherBatch(lab.DS, idx), classes
}

// program is one (builder, seed, scale) corpus job.
type program struct {
	build func(seed int64, scale int) *isa.Program
	seed  int64
	scale int
}

// corpusPrograms lists the corpus's programs in the order
// dataset.CollectAll enumerates them, with the same seed derivation.
func corpusPrograms(o dataset.CorpusOptions) []program {
	const domain = "corpus/v1/"
	var out []program
	for _, w := range workload.All() {
		for s := 0; s < o.Seeds; s++ {
			out = append(out, program{w.Build, runner.DeriveSeed(domain+"workload/"+w.Name, s, o.SeedOffset), o.Scale})
		}
	}
	for _, a := range attacks.All() {
		for s := 0; s < o.Seeds; s++ {
			out = append(out, program{a.Build, runner.DeriveSeed(domain+"attack/"+a.Name, s, o.SeedOffset), max(o.AttackScale, 1)})
		}
	}
	return out
}
