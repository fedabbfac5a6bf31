// Command evaxload records the synthetic benign+attack corpus that evaxd
// reads as its golden canary corpus (-canary) and replays (-replay). The
// corpus comes from seeded simulator runs, so the same -seeds always writes
// the same file.
//
// Usage:
//
//	evaxload -record corpus.bin            # record a replayable corpus
//	evaxload -record corpus.bin -seeds 4   # more seeded instances per program
//
// Load against a running server is perfbench's (bash perfbench/run.sh); the
// fleet digest sweep is evaxfleet -replay.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"evax/internal/dataset"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and output streams injected, so the flag
// and exit-code contract is testable: 0 after -h or a written corpus, 2 for
// a flag that does not parse or a missing -record, 1 for any other failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("evaxload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		record = fs.String("record", "", "generate the synthetic corpus and write it here")
		seeds  = fs.Int("seeds", 2, "seeded instances per program when generating the synthetic corpus")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *record == "" {
		fmt.Fprintln(stderr, "evaxload: -record is required")
		fs.Usage()
		return 2
	}

	samples := syntheticCorpus(*seeds)
	if len(samples) == 0 {
		fmt.Fprintln(stderr, "evaxload: corpus is empty")
		return 1
	}
	if err := dataset.WriteCorpusFile(*record, samples); err != nil {
		fmt.Fprintf(stderr, "evaxload: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "evaxload: recorded %d samples to %s\n", len(samples), *record)
	return 0
}

// syntheticCorpus builds a small benign+attack corpus from simulator runs,
// sized to exercise the server without minutes of generation.
func syntheticCorpus(seeds int) []dataset.Sample {
	opts := dataset.DefaultCorpusOptions()
	opts.Seeds = seeds
	opts.MaxInstr = 30_000
	return dataset.CollectAll(opts)
}
