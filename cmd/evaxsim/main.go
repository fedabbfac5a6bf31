// Command evaxsim runs a single benign workload or attack program on the
// cycle-level simulator and reports performance and security statistics —
// the quickest way to watch an attack leak (or a defense stop it).
//
// Usage:
//
//	evaxsim -prog spectre-pht -policy none -max 200000
//	evaxsim -prog meltdown -policy fence-before-load
//	evaxsim -prog compress -seed 3 -scale 2 -counters 15
//	evaxsim -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"evax/internal/attacks"
	"evax/internal/defense"
	"evax/internal/engine"
	"evax/internal/isa"
	"evax/internal/sim"
	"evax/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and output streams injected, so the flag
// and exit-code contract is testable: 0 after -h, -list or a finished run, 2
// for a flag that does not parse, 1 for an unknown program or policy.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("evaxsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		progName = fs.String("prog", "spectre-pht", "program to run (see -list)")
		seed     = fs.Int64("seed", 11, "program seed (layout, secrets, data)")
		scale    = fs.Int("scale", 1, "program scale (loop trips / leak rounds)")
		policy   = fs.String("policy", "none", "defense policy: none | fence-after-branch | fence-before-load | invisispec-spectre | invisispec-futuristic")
		maxInstr = fs.Uint64("max", 2_000_000, "maximum committed instructions")
		topN     = fs.Int("counters", 10, "print the N highest counters (0 disables)")
		list     = fs.Bool("list", false, "list available programs and exit")
		bundleIn = fs.String("bundle", "", "run adaptively: gate -policy with the detection bundle written by evaxtrain -bundle")
		interval = fs.Uint64("interval", 2000, "adaptive mode: detector sampling cadence in instructions")
		window   = fs.Uint64("secure-window", 100_000, "adaptive mode: instructions in secure mode per flag")
		prefetch = fs.Bool("prefetch", false, "enable the stride prefetcher")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "benign workloads:")
		for _, w := range workload.All() {
			fmt.Fprintf(stdout, "  %s\n", w.Name)
		}
		fmt.Fprintln(stdout, "attacks:")
		for _, a := range attacks.All() {
			fmt.Fprintf(stdout, "  %s\n", a.Name)
		}
		return 0
	}

	pol, err := parsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	prog, err := buildProgram(*progName, *seed, *scale)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	mcfg := sim.DefaultConfig()
	mcfg.Prefetcher.Enabled = *prefetch

	if *bundleIn != "" {
		runAdaptive(stdout, stderr, mcfg, prog, pol, *bundleIn, *interval, *window, *maxInstr)
		return 0
	}

	m := sim.New(mcfg, prog)
	m.SetPolicy(pol)
	m.Run(*maxInstr)

	fmt.Fprintf(stdout, "program      %s (class %s, %d static instructions)\n", prog.Name, prog.Class, prog.Len())
	fmt.Fprintf(stdout, "policy       %s\n", m.Policy())
	fmt.Fprintf(stdout, "finished     %v\n", m.Done())
	fmt.Fprintf(stdout, "instructions %d\n", m.Instructions())
	fmt.Fprintf(stdout, "cycles       %d\n", m.Cycles())
	fmt.Fprintf(stdout, "IPC          %.3f\n", m.IPC())
	fmt.Fprintf(stdout, "mispredicts  %d\n", m.Ctr(sim.CtrIEWBranchMispredicts))
	fmt.Fprintf(stdout, "squashed     %d micro-ops\n", m.Ctr(sim.CtrCommitSquashedInsts))
	fmt.Fprintf(stdout, "faults       %d (commit-time)\n", m.Ctr(sim.CtrCommitFaults))
	fmt.Fprintf(stdout, "transient cache leaks: %d squashed loads touched the cache\n", m.C.LeakedTransientLoads)
	if prog.Class.Malicious() {
		if m.C.LeakedTransientLoads > 0 {
			fmt.Fprintln(stdout, "security     LEAKAGE OCCURRED")
		} else {
			fmt.Fprintln(stdout, "security     no transient leakage observed")
		}
		if r := int64(m.ArchReg(isa.R30)); r >= 0 && m.ArchReg(isa.R30) != 0 {
			fmt.Fprintf(stdout, "transmit     gadget recovered value %d\n", r)
		}
	}

	if *topN > 0 {
		cat := sim.CounterCatalog()
		vals := make([]uint64, cat.Len())
		m.ReadCounters(vals)
		type kv struct {
			name string
			v    uint64
		}
		var all []kv
		for i, v := range vals {
			if v > 0 {
				all = append(all, kv{cat.Name(i), v})
			}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].v > all[j].v })
		if *topN > len(all) {
			*topN = len(all)
		}
		fmt.Fprintf(stdout, "\ntop %d counters:\n", *topN)
		for _, e := range all[:*topN] {
			fmt.Fprintf(stdout, "  %-36s %d\n", e.name, e.v)
		}
	}
	return 0
}

// runAdaptive gates the chosen policy with a trained detection bundle.
func runAdaptive(stdout, stderr io.Writer, mcfg sim.Config, prog *isa.Program, pol sim.Policy, bundlePath string, interval, window, maxInstr uint64) {
	fl, err := engine.LoadFlaggerOrSecure(bundlePath)
	if err != nil {
		fmt.Fprintf(stderr, "evaxsim: %v\nevaxsim: falling back to always-secure mode (every window mitigated)\n", err)
	}
	dcfg := defense.DefaultConfig(pol)
	dcfg.SampleInterval = interval
	dcfg.SecureWindow = window
	res := defense.RunProgram(mcfg, prog, fl, dcfg, maxInstr)
	fmt.Fprintf(stdout, "program      %s (class %s) under adaptive %s\n", prog.Name, prog.Class, pol)
	fmt.Fprintf(stdout, "instructions %d\n", res.Instructions)
	fmt.Fprintf(stdout, "cycles       %d\n", res.Cycles)
	fmt.Fprintf(stdout, "IPC          %.3f\n", res.IPC)
	fmt.Fprintf(stdout, "windows      %d sampled, %d flagged (%.1f%%)\n",
		res.Windows, res.Flags, 100*res.FlagRate())
	fmt.Fprintf(stdout, "secure mode  %d instructions (%.1f%%)\n",
		res.SecureInstr, 100*float64(res.SecureInstr)/float64(res.Instructions+1))
	fmt.Fprintf(stdout, "transient cache leaks: %d\n", res.LeakedTransient)
}

func buildProgram(name string, seed int64, scale int) (*isa.Program, error) {
	for _, w := range workload.All() {
		if w.Name == name {
			return w.Build(seed, scale), nil
		}
	}
	for _, a := range attacks.All() {
		if a.Name == name {
			return a.Build(seed, scale), nil
		}
	}
	return nil, fmt.Errorf("evaxsim: unknown program %q (try -list)", name)
}

func parsePolicy(s string) (sim.Policy, error) {
	switch s {
	case "none":
		return sim.PolicyNone, nil
	case "fence-after-branch":
		return sim.PolicyFenceAfterBranch, nil
	case "fence-before-load":
		return sim.PolicyFenceBeforeLoad, nil
	case "invisispec-spectre":
		return sim.PolicyInvisiSpecSpectre, nil
	case "invisispec-futuristic":
		return sim.PolicyInvisiSpecFuturistic, nil
	}
	return sim.PolicyNone, fmt.Errorf("evaxsim: unknown policy %q", s)
}
