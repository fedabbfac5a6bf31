package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"

	"evax/internal/dataset"
	"evax/internal/defense"
	"evax/internal/detect"
	"evax/internal/engine"
	"evax/internal/runner"
	"evax/internal/safeio"
	"evax/internal/serve"
)

// servingSeedOffset keeps the serving corpus's program instances disjoint
// from the campaign corpus at the same seed.
const servingSeedOffset = 1 << 20

// canaryRows is the size of the golden corpus swap candidates are
// canary-scored against.
const canaryRows = 512

// openQueueBound is the admission bound of the open-loop phases' servers:
// half a second of the surge rate.
const openQueueBound = 32768

// offline is one generation's reference answer for every serving row.
type offline struct {
	bits []uint64 // math.Float64bits of the score
	flag []bool
}

// servingEnv is everything the serving phases need: the corpus rows the
// clients stream, two bundles A and B (B swaps in during the swap phase),
// their offline scores, and one in-process server per phase.
type servingEnv struct {
	rows   []dataset.Sample
	perm   []int // seeded stream order over rows
	rawDim int

	det              *detect.Detector
	ds               *dataset.Dataset
	bundleA, bundleB []byte
	pathA, pathB     string
	genA, genB       *engine.Generation
	offA, offB       offline
	canary           []dataset.Sample
	// One server per phase; sat takes the closed-loop bursts.
	trickle, surge, sw, sat *serve.Server
}

// setupServing builds the serving corpus, trains bundle A, derives bundle B,
// compiles both generations, writes the bundles where the admin swap reads
// them, and starts one server per phase.
func setupServing(seed int64, backend, dir string, tr *tracer, parent int) (*servingEnv, error) {
	env := &servingEnv{}

	id := tr.begin("dataset.CollectAll", parent)
	co := dataset.DefaultCorpusOptions()
	co.Seeds = 1
	co.SeedOffset = seed + servingSeedOffset
	co.Jobs = runtime.GOMAXPROCS(0)
	env.ds = dataset.New(dataset.CollectAll(co))
	env.rows = env.ds.Samples
	env.rawDim = len(env.rows[0].Raw)
	env.perm = rand.New(rand.NewSource(runner.DeriveSeed("perfbench/rows", 0, seed))).Perm(len(env.rows))
	tr.end(id)

	id = tr.begin("detect.Train", parent)
	env.det = trainServingDetector(seed, env.ds)
	tr.end(id)

	id = tr.begin("defense.EncodeBundle", parent)
	var err error
	if env.bundleA, err = defense.EncodeBundle(env.det, env.ds); err != nil {
		return nil, fmt.Errorf("bundle A: %w", err)
	}
	if env.bundleB, err = defense.EncodeBundle(doubledLogits(seed, env.det), env.ds); err != nil {
		return nil, fmt.Errorf("bundle B: %w", err)
	}
	tr.end(id)

	id = tr.begin("safeio.WriteFile", parent)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	env.pathA, env.pathB = filepath.Join(dir, "bundle-a.json"), filepath.Join(dir, "bundle-b.json")
	if err := safeio.WriteFile(env.pathA, env.bundleA, 0o644); err != nil {
		return nil, err
	}
	if err := safeio.WriteFile(env.pathB, env.bundleB, 0o644); err != nil {
		return nil, err
	}
	tr.end(id)

	id = tr.begin("engine.FromBytes", parent)
	if env.genA, err = engine.FromBytes(env.bundleA, env.pathA, backend); err != nil {
		return nil, err
	}
	if env.genB, err = engine.FromBytes(env.bundleB, env.pathB, backend); err != nil {
		return nil, err
	}
	tr.end(id)

	id = tr.begin("engine.Scorer", parent)
	env.offA = scoreOffline(env.genA, env.rows)
	env.offB = scoreOffline(env.genB, env.rows)
	for i := 0; i < canaryRows && i < len(env.rows); i++ {
		env.canary = append(env.canary, env.rows[i*len(env.rows)/canaryRows])
	}
	tr.end(id)

	id = tr.begin("serve.Start", parent)
	defer tr.end(id)
	cfg := serve.DefaultConfig()
	cfg.Backend = backend
	if env.sat, err = startServer(env.genA, engine.ManagerConfig{Backend: backend}, cfg); err != nil {
		return nil, err
	}
	// The open-loop servers admit openQueueBound samples: a stall of the
	// host longer than QueueBound/rate (17 ms at the surge rate) must show
	// as latency, not as refused samples that end the run's correctness.
	cfg.QueueBound = openQueueBound
	if env.trickle, err = startServer(env.genA, engine.ManagerConfig{Backend: backend}, cfg); err != nil {
		return nil, err
	}
	if env.surge, err = startServer(env.genA, engine.ManagerConfig{Backend: backend}, cfg); err != nil {
		return nil, err
	}
	state := filepath.Join(dir, "state")
	if err := os.RemoveAll(state); err != nil {
		return nil, err
	}
	mcfg := engine.ManagerConfig{Dir: state, Backend: backend, Corpus: env.canary}
	if env.sw, err = startServer(env.genA, mcfg, cfg); err != nil {
		return nil, err
	}
	return env, nil
}

func startServer(g *engine.Generation, mcfg engine.ManagerConfig, cfg serve.Config) (*serve.Server, error) {
	mgr, err := engine.NewManager(g, mcfg)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewFromManager(mgr, cfg)
	if err != nil {
		return nil, err
	}
	return srv, srv.Start()
}

// close drains every server the environment started.
func (env *servingEnv) close() error {
	for _, s := range []*serve.Server{env.trickle, env.surge, env.sw, env.sat} {
		if s == nil {
			continue
		}
		if _, err := s.Drain(); err != nil {
			return err
		}
	}
	return nil
}

// trainServingDetector trains the EVAX-feature perceptron the servers score
// with, its threshold tuned for a 2% false-positive rate on benign windows.
func trainServingDetector(seed int64, ds *dataset.Dataset) *detect.Detector {
	fs := detect.EVAXBase()
	fs.SetEngineered(detect.DefaultEngineered(fs))
	d := detect.NewPerceptron(seed, fs)
	idx := make([]int, len(ds.Samples))
	for i := range idx {
		idx[i] = i
	}
	d.Train(ds, idx, detect.DefaultTrainOptions())
	var benign []float64
	for i := range ds.Samples {
		if !ds.Samples[i].Malicious {
			benign = append(benign, d.Score(ds.Samples[i].Derived))
		}
	}
	d.TuneThresholdForFPR(benign, 0.02)
	return d
}

// doubledLogits returns bundle B's detector: A's weights and bias times
// two, with the threshold moved to match. Every score changes, but each
// flag decision stays A's (up to rounding at the threshold itself), so A
// and B clear the canary gate against each other in both directions.
func doubledLogits(seed int64, a *detect.Detector) *detect.Detector {
	b := detect.NewPerceptron(seed, a.Plan)
	src, dst := a.Net.Layers[0], b.Net.Layers[0]
	for o := range src.W {
		for i, w := range src.W[o] {
			dst.W[o][i] = 2 * w
		}
		dst.B[o] = 2 * src.B[o]
	}
	logit := math.Log(a.Threshold / (1 - a.Threshold))
	b.Threshold = 1 / (1 + math.Exp(-2*logit))
	return b
}

// scoreOffline scores every row through a private scorer of g, one row at
// a time: the reference the served verdicts must match bit for bit.
func scoreOffline(g *engine.Generation, rows []dataset.Sample) offline {
	sc := g.NewScorer()
	thr := sc.Threshold()
	out := offline{bits: make([]uint64, len(rows)), flag: make([]bool, len(rows))}
	for i := range rows {
		s := &rows[i]
		score := sc.Score(s.Raw, s.Instructions, s.Cycles)
		out.bits[i] = math.Float64bits(score)
		out.flag[i] = score >= thr
	}
	return out
}

// rowFor maps (connection, sequence number) to a corpus row: connections
// interleave over the seeded stream order.
func (env *servingEnv) rowFor(conn, conns int, seq uint64) int {
	return env.perm[(conn+int(seq)*conns)%len(env.perm)]
}

// verdictOK reports whether v carries the offline score and flag of its
// row under one of the generations that may have served it.
func (env *servingEnv) verdictOK(conn, conns int, v serve.Verdict, gens []offline) bool {
	r := env.rowFor(conn, conns, v.Seq)
	bits := math.Float64bits(v.Score)
	for _, g := range gens {
		if g.bits[r] == bits && g.flag[r] == v.Flagged() {
			return true
		}
	}
	return false
}
