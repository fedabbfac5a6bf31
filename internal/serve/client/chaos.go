package client

import (
	"fmt"
	"time"

	"evax/internal/engine"
	"evax/internal/netfault"
	"evax/internal/runner"
)

// Sample is one workload row a chaos client streams: the raw counter vector
// plus the instruction/cycle telemetry positioning it on the timeline.
type Sample struct {
	Instructions uint64
	Cycles       uint64
	Raw          []float64
}

// ChaosConfig drives one chaos run: a fleet of resilient clients streaming
// their workloads through deterministically fault-injected connections.
type ChaosConfig struct {
	// Addr is the server under test.
	Addr string
	// RawDim is the raw counter dimensionality of every sample.
	RawDim int
	// Name seeds the fault plan and the clients' backoff jitter; the same
	// name (with the same fleet shape) reproduces the same fault sequence
	// bit-for-bit.
	Name string
	// FaultsPerClient is how many consecutive connection attempts of each
	// client suffer an injected fault before the plan exhausts and
	// connections run clean. Zero runs the fleet fault-free — the baseline
	// a chaos digest is compared against.
	FaultsPerClient int
	// Stall is the pause OpStallWrite faults hold before severing.
	Stall time.Duration
	// Options is the per-client template; Addr, RawDim, Name, ID and
	// Interpose are overridden per client.
	Options Options
}

// ChaosReport aggregates a chaos run: per-client reports, the canonical
// merged digest, and the faults that actually fired.
type ChaosReport struct {
	// Reports holds each client's final accounting, indexed by client id.
	Reports []Report
	// Digest folds every verdict in canonical (client, seq) order — the
	// invariant: equal to the fault-free run's digest bit-for-bit.
	Digest uint64
	// Rows and Flagged are the folded verdict count and flag count.
	Rows    int
	Flagged int
	// Events are the injected faults in canonical (client, attempt) order.
	Events []netfault.Event
}

// RunChaos streams work[i] through resilient client i — each wrapped by the
// fault plan derived from cfg.Name — and merges the fleet's verdicts into
// the canonical digest. Every client must finish with exactly one verdict
// per submitted sample or the run errors.
func RunChaos(cfg ChaosConfig, work [][]Sample) (*ChaosReport, error) {
	clients := len(work)
	if clients == 0 {
		return nil, fmt.Errorf("client: chaos run with no work")
	}
	sched := netfault.Plan(cfg.Name, clients, cfg.FaultsPerClient, cfg.Stall)
	reports, err := runner.MapErr(runner.Options{Jobs: clients}, clients, func(i int) (Report, error) {
		o := cfg.Options
		o.Addr = cfg.Addr
		o.RawDim = cfg.RawDim
		o.Name = cfg.Name
		o.ID = i
		o.Interpose = sched.Client(i).Wrap
		cl := New(o)
		for _, s := range work[i] {
			if err := cl.Submit(s.Instructions, s.Cycles, s.Raw); err != nil {
				return Report{}, fmt.Errorf("chaos client %d: %w", i, err)
			}
		}
		rep, err := cl.Finish()
		if err != nil {
			return Report{}, fmt.Errorf("chaos client %d: %w", i, err)
		}
		if len(rep.Verdicts) != len(work[i]) {
			return Report{}, fmt.Errorf("chaos client %d: %d verdicts for %d samples",
				i, len(rep.Verdicts), len(work[i]))
		}
		return rep, nil
	})
	if err != nil {
		return nil, err
	}
	d := engine.NewDigest()
	for i := range reports {
		for _, v := range reports[i].Verdicts {
			d.Add(v.Score, v.Flagged())
		}
	}
	return &ChaosReport{
		Reports: reports,
		Digest:  d.Sum(),
		Rows:    d.Rows(),
		Flagged: d.Flagged(),
		Events:  sched.Events.Sorted(),
	}, nil
}
