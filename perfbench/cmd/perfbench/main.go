// Command perfbench is the repository's benchmark. One run builds its
// inputs from -seed, runs the offline campaign and four serving phases
// (trickle, surge, saturation, swap) against in-process servers, checks
// every output, and prints one JSON result line: end-to-end metrics with
// -trace 0, per-layer metrics and the tracing overhead with -trace 1. See
// perfbench/README.md for the workloads and the metric → layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"evax/internal/serve"
)

// workloads maps each workload to the scoring kernel its servers run. The
// campaign and the load shapes are the same for both: a change to one
// kernel moves its own workload's serving numbers and leaves the other's.
var workloads = map[string]string{
	"float":     serve.BackendFloat,
	"quantized": serve.BackendQuantized,
}

// Load shapes of the serving phases.
const (
	trickleRate  = 2_000  // samples/s, 1 connection: batches rarely fill
	surgeRate    = 60_000 // samples/s, 2 connections: batches full
	surgeConns   = 2
	surgeWindow  = 128    // in-flight samples per connection, closed loop
	closedBursts = 4      // per slot; there are three slots
	swapRate     = 20_000 // samples/s, 1 data connection
	swapEvery    = 100 * time.Millisecond
)

const (
	// watchdog ends a hung run before a 180 s limit, without a result line.
	watchdog = 170 * time.Second
)

type options struct {
	workload, backend string
	seed              int64
	seconds           int
	trace             bool
	dir               string
	root              string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "float", "workload: float or quantized")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is drawn from")
	flag.IntVar(&o.seconds, "seconds", 20, "total time of the serving phases, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics and tracing overhead")
	flag.Parse()
	// Bundles, generation state, ledgers and spans stay inside the checkout.
	o.dir = filepath.Join(".bench_build", "run")
	var ok bool
	if o.backend, ok = workloads[o.workload]; !ok {
		fatalf("unknown -workload %q (want float or quantized)", o.workload)
	}
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}
	o.trace = traceFlag == 1
	var err error
	if o.root, err = os.Getwd(); err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})

	res, err := run(context.Background(), o)
	if err != nil {
		fatalf("%v", err)
	}
	info, err := json.Marshal(res.info)
	if err != nil {
		fatalf("%v", err)
	}
	out, err := json.Marshal(res.line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("perfbench %s\n%s\n", info, out)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runInfo is printed on the line before the result: what ran, where, and
// the evidence behind the correctness verdict.
type runInfo struct {
	Workload       string         `json:"workload"`
	Seed           int64          `json:"seed"`
	Trace          bool           `json:"trace"`
	Host           host           `json:"host"`
	CampaignDigest string         `json:"campaign_digest"`
	Exact          exactValues    `json:"exact"`
	Samples        map[string]int `json:"latency_samples"`
	Swaps          int            `json:"swaps"`
	// Repetitions holds, in run order, the values each repeated
	// end-to-end figure was taken over.
	Repetitions map[string][]float64 `json:"repetitions"`
	Failures    []string             `json:"failures,omitempty"`
	Spans       string               `json:"spans,omitempty"`
}

type result struct {
	info runInfo
	line resultLine
}

// pass is one complete set of phases: set-up, campaign and serving.
type pass struct {
	setupS    float64
	camp      campaignResult
	campaigns int // repetitions run
	trickle   openResult
	surge     openResult
	closed    closedResult
	swap      openResult
	snaps     map[string]serve.Snapshot
	env       *servingEnv
	mem0      runtime.MemStats
	mem1      runtime.MemStats
	maxRSSMB  float64
	reps      map[string][]float64
	failures  []string
}

func (p *pass) attempted() int {
	return p.trickle.sent + p.surge.sent + p.closed.sent + p.swap.sent + len(p.swap.swaps) + p.campaigns
}

// failed counts failed samples plus every other failure (refused swaps,
// digest mismatches, drain errors), which are listed in p.failures.
func (p *pass) failed() int {
	return p.trickle.failedOps + p.surge.failedOps + p.closed.failedOps + p.swap.failedOps + len(p.failures)
}

// runPass runs every phase once, in three slots, one per open-loop phase.
// A full pass repeats its set-up and its campaign within the slots: after
// the slot's open-loop phase come closedBursts closed-loop bursts with an
// extra set-up between each two, then one campaign, so that a slow spell
// on the host moves one repetition of each figure rather than all. setup_s is the
// median of all set-ups (the first one's environment serves every phase);
// campaign_s is the mean of the campaigns, which must all reproduce the
// first one's digest. A pass that is not full (each pass of a traced run)
// makes one set-up and one campaign. The last campaign comes after the last
// serving phase: its lab is kept for the traced probes, and no serving
// phase runs while a lab is alive. max_rss_mb is the peak since the
// process started or since the last resetPeakRSS.
func runPass(ctx context.Context, o options, tr *tracer, full bool) (*pass, error) {
	p := &pass{snaps: map[string]serve.Snapshot{}}
	root := tr.begin("pass", 0)
	defer tr.end(root)

	var setups []float64
	setup := func() (*servingEnv, error) {
		id := tr.begin("setup", root)
		defer tr.end(id)
		t0 := time.Now()
		// Each environment gets its own directory: the swap server's state
		// directory must outlive later set-ups.
		env, err := setupServing(o.seed, o.backend, filepath.Join(o.dir, fmt.Sprintf("env%d", len(setups))), tr, id)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		return env, nil
	}
	var err error
	if p.env, err = setup(); err != nil {
		return nil, err
	}
	defer func() {
		if err := p.env.close(); err != nil {
			p.failures = append(p.failures, "drain: "+err.Error())
		}
	}()

	runtime.ReadMemStats(&p.mem0)
	phases := []struct {
		name string
		run  func() error
	}{
		{"trickle", func() error { return runTrickle(ctx, o, p, tr.on) }},
		{"surge", func() error { return runSurge(ctx, o, p, tr.on) }},
		{"swap", func() error { return runSwap(ctx, o, p, tr.on) }},
	}
	total := time.Duration(o.seconds) * time.Second
	burst := total * 15 / 100 / (closedBursts * time.Duration(len(phases)))
	var camps []float64
	for i, ph := range phases {
		// Each phase starts from a collected heap, so garbage left by the
		// previous one is not charged to its latencies.
		runtime.GC()
		id := tr.begin("phase."+ph.name, root)
		if err := ph.run(); err != nil {
			return nil, fmt.Errorf("%s: %w", ph.name, err)
		}
		tr.end(id)
		src := envStream{p.env, surgeConns, []offline{p.env.offA}}
		for b := 0; b < closedBursts; b++ {
			// In a full pass a set-up separates consecutive bursts: a
			// burst's rate keeps whatever level it settles into, and a
			// burst that follows another tends to inherit its level.
			if full && b > 0 {
				env, err := setup()
				if err != nil {
					return nil, err
				}
				if err := env.close(); err != nil {
					return nil, err
				}
			}
			id = tr.begin("phase.saturation", root)
			if err := runBurst(ctx, p.env.sat.Addr(), p.env.rawDim, surgeConns, surgeWindow, burst, src, &p.closed); err != nil {
				return nil, fmt.Errorf("closed loop: %w", err)
			}
			tr.end(id)
		}
		if !full && i < len(phases)-1 {
			continue
		}
		runtime.GC()
		id = tr.begin("campaign", root)
		c := runCampaign(o.seed, tr, id)
		tr.end(id)
		if i < len(phases)-1 {
			c.lab = nil
		}
		if p.campaigns > 0 && c.digest != p.camp.digest {
			p.failures = append(p.failures, fmt.Sprintf("campaign digest %s, an earlier repetition gave %s", c.digest, p.camp.digest))
		}
		p.camp = c
		p.campaigns++
		camps = append(camps, c.seconds)
	}
	p.setupS = median(append([]float64(nil), setups...))
	p.camp.seconds = mean(camps)
	p.reps = map[string][]float64{"setup_s": setups, "campaign_s": camps, "sat_vps": p.closed.rates, "swap_ms": p.swapMs()}
	runtime.ReadMemStats(&p.mem1)
	if p.maxRSSMB, err = maxRSSMB(); err != nil {
		return nil, fmt.Errorf("reading peak RSS: %w", err)
	}
	return p, nil
}

// sampleFailures names each phase's failed samples, which failed() counts
// one by one rather than through p.failures.
func (p *pass) sampleFailures() []string {
	var out []string
	for _, r := range []struct {
		name string
		o    openResult
	}{{"trickle", p.trickle}, {"surge", p.surge}, {"swap", p.swap}} {
		if r.o.failedOps > 0 {
			out = append(out, fmt.Sprintf("%s: %d of %d samples failed (%d refused, %d unanswered, %d wrong)",
				r.name, r.o.failedOps, r.o.sent, r.o.rejected, r.o.sent-r.o.answered, r.o.wrong))
		}
	}
	if p.closed.failedOps > 0 {
		out = append(out, fmt.Sprintf("saturation: %d of %d samples failed", p.closed.failedOps, p.closed.sent))
	}
	return out
}

// drain stops a phase's server and keeps its final snapshot unless the
// phase already took one.
func (p *pass) drain(name string, srv **serve.Server) error {
	snap, err := (*srv).Drain()
	*srv = nil
	if err != nil {
		return fmt.Errorf("%s drain: %w", name, err)
	}
	if _, ok := p.snaps[name]; !ok {
		p.snaps[name] = snap
	}
	return nil
}

func runTrickle(ctx context.Context, o options, p *pass, timeSends bool) error {
	env := p.env
	plan := newOpenPlan("perfbench/trickle", o.seed, env.trickle.Addr(), env.rawDim, trickleRate, 1,
		time.Duration(o.seconds)*time.Second*3/10, envStream{env, 1, []offline{env.offA}})
	plan.timeSends = timeSends
	var err error
	if p.trickle, err = runOpen(ctx, plan); err != nil {
		return err
	}
	return p.drain("trickle", &env.trickle)
}

func runSurge(ctx context.Context, o options, p *pass, timeSends bool) error {
	env := p.env
	plan := newOpenPlan("perfbench/surge", o.seed, env.surge.Addr(), env.rawDim, surgeRate, surgeConns,
		time.Duration(o.seconds)*time.Second*15/100, envStream{env, surgeConns, []offline{env.offA}})
	plan.timeSends = timeSends
	var err error
	if p.surge, err = runOpen(ctx, plan); err != nil {
		return err
	}
	return p.drain("surge", &env.surge)
}

func runSwap(ctx context.Context, o options, p *pass, timeSends bool) error {
	env := p.env
	plan := newOpenPlan("perfbench/swap", o.seed, env.sw.Addr(), env.rawDim, swapRate, 1,
		time.Duration(o.seconds)*time.Second*4/10, envStream{env, 1, []offline{env.offA, env.offB}})
	plan.swapEvery = swapEvery
	plan.swapPaths = [2]string{env.pathA, env.pathB}
	plan.timeSends = timeSends
	var err error
	if p.swap, err = runOpen(ctx, plan); err != nil {
		return err
	}
	for i, s := range p.swap.swaps {
		if !s.ok {
			p.failures = append(p.failures, fmt.Sprintf("swap %d refused or rolled back: %s", i, s.reason))
		}
	}
	return p.drain("swap", &env.sw)
}

// endToEnd is the end-to-end metric set of one pass.
func endToEnd(p *pass) map[string]value {
	return map[string]value{
		"setup_s":            {p.setupS, "s"},
		"campaign_s":         {p.camp.seconds, "s"},
		"trickle.lat_p50_ms": {p.trickle.lat(0.50), "ms"},
		"surge.lat_p50_ms":   {p.surge.lat(0.50), "ms"},
		"sat_vps":            {interquartileMean(p.closed.rates), "1/s"},
		"swap.lat_p50_ms":    {p.swap.lat(0.50), "ms"},
		"max_rss_mb":         {p.maxRSSMB, "MB"},
	}
}

// swapMs is the round trip of each admin swap, in run order.
func (p *pass) swapMs() []float64 {
	out := make([]float64, 0, len(p.swap.swaps))
	for _, s := range p.swap.swaps {
		out = append(out, float64(s.endNs-s.startNs)/1e6)
	}
	return out
}

// unbounded holds the end-to-end figures too unsteady on a shared two-core
// host to carry a bound: the p99 latency of each open-loop phase, and the
// swap round trip, whose two fsyncs follow the host's disk as well as its
// processors. A traced run reports them, from its untraced pass, with the
// per-layer metrics.
func unbounded(p *pass) map[string]value {
	return map[string]value{
		"trickle.lat_p99_ms": {p.trickle.lat(0.99), "ms"},
		"surge.lat_p99_ms":   {p.surge.lat(0.99), "ms"},
		"swap.lat_p99_ms":    {p.swap.lat(0.99), "ms"},
		"swap_p50_ms":        {median(p.swapMs()), "ms"},
	}
}

// release drops what a finished pass no longer needs, so that none of it
// stays alive, and inflates the heap, during a second pass.
func (p *pass) release() {
	p.camp.lab, p.env = nil, nil
	for _, r := range []*openResult{&p.trickle, &p.surge, &p.swap} {
		r.latMs, r.dueNs, r.lagMs, r.sendUs, r.windowMs = nil, nil, nil, nil, nil
	}
}

// higherIsBetter lists the end-to-end metrics where a larger value is an
// improvement; the tracing overhead is signed so that positive is worse.
var higherIsBetter = map[string]bool{"sat_vps": true}

func run(ctx context.Context, o options) (*result, error) {
	hostInfo := fingerprint(o.root)
	// A traced run compares two passes of the same shape, one set-up and
	// one campaign each, so their difference is the tracing overhead.
	base, err := runPass(ctx, o, newTracer(false), !o.trace)
	if err != nil {
		return nil, err
	}
	metrics := endToEnd(base)
	tails := unbounded(base)
	base.release()

	var spansPath string
	failures := append(base.failures, base.sampleFailures()...)
	failed, attempted := base.failed(), base.attempted()
	if o.trace {
		// Returning the first pass's memory to the system first makes the
		// second pass's peak comparable with a fresh process's.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, fmt.Errorf("resetting peak RSS: %w", err)
		}
		tr := newTracer(true)
		traced, err := runPass(ctx, o, tr, false)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		tracedE2E := endToEnd(traced)
		layers, err := perLayer(o, traced, tr)
		if err != nil {
			return nil, err
		}
		for _, name := range sortedNames(tails) {
			layers[name] = tails[name]
		}
		for _, name := range sortedNames(metrics) {
			d := tracedE2E[name].Value - metrics[name].Value
			if higherIsBetter[name] {
				d = -d
			}
			layers["overhead."+name] = value{d, metrics[name].Unit}
		}
		if spansPath, err = tr.write(o.dir, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed)); err != nil {
			return nil, err
		}
		failures = append(failures, traced.failures...)
		failures = append(failures, traced.sampleFailures()...)
		failed += traced.failed()
		attempted += traced.attempted()
		if traced.camp.digest != base.camp.digest {
			failures = append(failures, "campaign digest differs between the untraced and traced pass")
			failed++
		}
		metrics = layers
	}

	exact := exactValues{
		"campaign.digest": base.camp.digest,
		"dataset.samples": strconv.Itoa(base.camp.samples),
		"runner.jobs":     strconv.FormatUint(base.camp.jobs, 10),
		"runner.fanouts":  strconv.FormatUint(base.camp.fanouts, 10),
	}
	if o.trace {
		exact["sim.instr"] = strconv.FormatFloat(metrics["sim.instr"].Value, 'f', -1, 64)
		exact["sim.cycles"] = strconv.FormatFloat(metrics["sim.cycles"].Value, 'f', -1, 64)
	}
	bad, err := checkExact(o.dir, o.seed, exact)
	if err != nil {
		return nil, err
	}
	failures = append(failures, bad...)
	failed += len(bad)
	if o.trace {
		metrics["failed_frac"] = value{float64(failed) / float64(attempted), "frac"}
	}
	for _, name := range sortedNames(metrics) {
		if v := metrics[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	return &result{
		info: runInfo{
			Workload:       o.workload,
			Seed:           o.seed,
			Trace:          o.trace,
			Host:           hostInfo,
			CampaignDigest: base.camp.digest,
			Exact:          exact,
			Samples: map[string]int{
				"trickle": base.trickle.answered,
				"surge":   base.surge.answered,
				"swap":    base.swap.answered,
			},
			Swaps:       len(base.swap.swaps),
			Repetitions: base.reps,
			Failures:    failures,
			Spans:       spansPath,
		},
		line: resultLine{
			Correct:   failed == 0,
			Attempted: attempted,
			Failed:    failed,
			Metrics:   metrics,
		},
	}, nil
}

func sortedNames(m map[string]value) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// perLayer derives the per-layer metrics from the traced pass and the
// one-layer-at-a-time probes.
func perLayer(o options, p *pass, tr *tracer) (map[string]value, error) {
	probes := tr.begin("probes", 0)
	defer tr.end(probes)
	lab := p.camp.lab
	p.camp.lab = nil // the probes hold the last reference and drop it early
	cl := probeCampaignLayers(o.seed, lab, tr, probes)
	sl, err := probeServingLayers(p.env, o.backend, o.dir, tr, probes)
	if err != nil {
		return nil, err
	}
	m := map[string]value{
		"sim.minstr_per_s":         {cl.simMinstrPerS, "Minstr/s"},
		"sim.instr":                {float64(cl.simInstr), "count"},
		"sim.cycles":               {float64(cl.simCycles), "count"},
		"sim.alloc_b_per_instr":    {cl.simAllocPerInstr, "B/instr"},
		"dataset.collect_s":        {cl.collectS, "s"},
		"dataset.samples":          {float64(cl.collectSamples), "count"},
		"gan.train_s":              {cl.ganTrainS, "s"},
		"featureng.mine_s":         {cl.mineS, "s"},
		"detect.train_s":           {cl.detectTrainS, "s"},
		"experiments.lab_s":        {tr.seconds("experiments.NewLab"), "s"},
		"experiments.fig14_s":      {tr.seconds("experiments.Figure14"), "s"},
		"experiments.fig16_s":      {tr.seconds("experiments.Figure16"), "s"},
		"runner.jobs":              {float64(p.camp.jobs), "count"},
		"runner.fanouts":           {float64(p.camp.fanouts), "count"},
		"runner.efficiency":        {cl.efficiency, "ratio"},
		"go.alloc_mb":              {float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc) / (1 << 20), "MB"},
		"go.gc_cycles":             {float64(p.mem1.NumGC - p.mem0.NumGC), "count"},
		"go.gc_pause_ms":           {float64(p.mem1.PauseTotalNs-p.mem0.PauseTotalNs) / 1e6, "ms"},
		"hpc.expand_ns":            {sl.expandNs, "ns"},
		"serve.codec_ns":           {sl.codecNs, "ns"},
		"kernel.float_ns":          {sl.floatNs, "ns"},
		"kernel.quant_ns":          {sl.quantNs, "ns"},
		"engine.load_ms":           {sl.loadMs, "ms"},
		"engine.canary_ms":         {sl.canaryMs, "ms"},
		"safeio.write_ms":          {sl.writeMs, "ms"},
		"serve.send_us_p50":        {quantile(p.surge.sendUs, 0.50), "us"},
		"serve.send_us_p99":        {quantile(p.surge.sendUs, 0.99), "us"},
		"serve.swap_window_p99_ms": {quantile(p.swap.windowMs, 0.99), "ms"},
	}
	var lag []float64
	for _, r := range []openResult{p.trickle, p.surge, p.swap} {
		lag = append(lag, r.lagMs...)
	}
	m["loadgen.lag_p99_ms"] = value{quantile(lag, 0.99), "ms"}
	var rejected, shed, writeErrs uint64
	for _, phase := range []string{"trickle", "surge", "swap"} {
		s := p.snaps[phase]
		m["serve."+phase+".server_p50_ms"] = value{s.LatencyP50Ms, "ms"}
		m["serve."+phase+".server_p99_ms"] = value{s.LatencyP99Ms, "ms"}
		rejected += s.RejectedLoad
		shed += s.Shed
		writeErrs += s.WriteErrors
	}
	for _, phase := range []string{"trickle", "surge"} {
		s := p.snaps[phase]
		var batches, rows uint64
		for size, n := range s.BatchOccupancy {
			batches += n
			rows += uint64(size) * n
		}
		m["serve."+phase+".batches"] = value{float64(batches), "count"}
		m["serve."+phase+".batch_mean"] = value{float64(rows) / float64(max(batches, 1)), "samples"}
	}
	m["serve.rejected_overload"] = value{float64(rejected), "count"}
	m["serve.shed"] = value{float64(shed), "count"}
	m["serve.write_errors"] = value{float64(writeErrs), "count"}
	return m, nil
}
