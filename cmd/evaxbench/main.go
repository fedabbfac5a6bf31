// Command evaxbench regenerates the paper's evaluation: every table and
// figure has a driver in internal/experiments, and this command runs them
// and prints the corresponding rows and series. EXPERIMENTS.md records a
// reference run next to the paper's numbers.
//
// Usage:
//
//	evaxbench                # run everything at the default scale
//	evaxbench -exp fig16     # one experiment
//	evaxbench -quick         # reduced scale (the test configuration)
//	evaxbench -jobs 8        # fan simulation campaigns out over 8 workers
//	evaxbench -resume ckpt/   # journal campaigns into ckpt/; rerun to resume a killed run
//	evaxbench -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"evax/internal/checkpoint"
	"evax/internal/experiments"
	"evax/internal/isa"
	"evax/internal/runner"
)

var experimentIDs = []string{
	"table1", "table2", "fig6", "fig7", "fig9-11", "fig14", "fig15",
	"fig16", "fig17", "fig18", "fig19", "fig20", "zeroday",
}

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment id or \"all\" (see -list)")
		quick     = flag.Bool("quick", false, "reduced scale (the test configuration)")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		jobs      = flag.Int("jobs", 0, "worker count for simulation campaigns (0 = GOMAXPROCS, 1 = sequential)")
		resumeDir = flag.String("resume", "", "directory for checkpoint journals; a killed run restarted with the same flags resumes its campaigns bit-identically")
	)
	flag.Parse()

	if *list {
		for _, id := range experimentIDs {
			fmt.Println(id)
		}
		return
	}

	opts := experiments.DefaultLabOptions()
	if *quick {
		opts = experiments.QuickLabOptions()
	}
	opts.Jobs = *jobs

	ids := experimentIDs
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}

	needLab := false
	for _, id := range ids {
		if id != "table2" {
			needLab = true
		}
	}

	if *resumeDir != "" {
		if err := os.MkdirAll(*resumeDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	var lab *experiments.Lab
	if needLab {
		workers := opts.Jobs
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		fmt.Printf("building lab (corpus + AM-GAN + detectors) with %d worker(s)...\n", workers)
		t0, s0 := time.Now(), runner.Snapshot()
		l, err := buildLab(opts, *resumeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		lab = l
		reportThroughput("lab", time.Since(t0), runner.Snapshot().JobsRun-s0.JobsRun)
		fmt.Printf("lab ready: %s\n\n", lab.DS.Stats())
	}

	for _, id := range ids {
		t0, s0 := time.Now(), runner.Snapshot()
		out, err := run(id, lab, *resumeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(out)
		reportThroughput(id, time.Since(t0), runner.Snapshot().JobsRun-s0.JobsRun)
		fmt.Println()
	}
}

// buildLab constructs the lab, journaling the corpus campaign under
// resumeDir when set so a killed run resumes instead of restarting.
func buildLab(opts experiments.LabOptions, resumeDir string) (*experiments.Lab, error) {
	if resumeDir == "" {
		return experiments.NewLab(opts), nil
	}
	j, err := openJournal(resumeDir, "corpus", opts.Corpus.CampaignKey())
	if err != nil {
		return nil, err
	}
	//evaxlint:ignore droppederr every Append already fsynced; close failure after a finished campaign loses nothing
	defer j.Close()
	return experiments.NewLabCtx(context.Background(), opts, j)
}

// openJournal opens resumeDir/<name>.journal keyed to the campaign,
// reporting how much of the campaign is already banked.
func openJournal(resumeDir, name, key string) (*checkpoint.Journal, error) {
	path := filepath.Join(resumeDir, name+".journal")
	j, err := checkpoint.Open(path, key)
	if errors.Is(err, checkpoint.ErrCampaignMismatch) {
		return nil, fmt.Errorf("%w\n(the journal at %s was written by a run with different flags; rerun with matching flags or delete it)", err, path)
	}
	if err != nil {
		return nil, err
	}
	if j.Len() > 0 {
		fmt.Printf("resuming %s campaign from %s (%d jobs already journaled)\n", name, path, j.Len())
	}
	return j, nil
}

// reportThroughput prints one stage's wall-clock and per-job throughput.
func reportThroughput(stage string, wall time.Duration, jobs uint64) {
	if jobs == 0 {
		fmt.Printf("[%s completed in %v]\n", stage, wall.Round(time.Millisecond))
		return
	}
	fmt.Printf("[%s completed in %v: %d jobs, %.1f jobs/sec]\n",
		stage, wall.Round(time.Millisecond), jobs, float64(jobs)/wall.Seconds())
}

func run(id string, lab *experiments.Lab, resumeDir string) (fmt.Stringer, error) {
	switch id {
	case "table1":
		return experiments.TableI(lab), nil
	case "table2":
		return experiments.TableII(), nil
	case "fig6":
		return experiments.Figure6(lab), nil
	case "fig7":
		return experiments.Figure7(lab), nil
	case "fig9-11", "fig9", "fig10", "fig11":
		return experiments.Figure9to11(lab), nil
	case "fig14":
		return experiments.Figure14(lab), nil
	case "fig15":
		return experiments.Figure15(lab), nil
	case "fig16":
		return experiments.Figure16(lab), nil
	case "fig17":
		const seedsPerTool = 6
		if resumeDir == "" {
			return experiments.Figure17(lab, seedsPerTool), nil
		}
		j, err := openJournal(resumeDir, "fig17", lab.Figure17Key(seedsPerTool))
		if err != nil {
			return nil, err
		}
		//evaxlint:ignore droppederr every Append already fsynced; close failure after a finished campaign loses nothing
		defer j.Close()
		res, err := experiments.Figure17Ctx(context.Background(), lab, seedsPerTool, j)
		if err != nil {
			return nil, err
		}
		return res, nil
	case "fig18":
		return experiments.Figure18(lab), nil
	case "fig19":
		if resumeDir == "" {
			return experiments.Figure19(lab, nil), nil // all folds
		}
		j, err := openJournal(resumeDir, "fig19", lab.Figure19Key(nil))
		if err != nil {
			return nil, err
		}
		//evaxlint:ignore droppederr every Append already fsynced; close failure after a finished campaign loses nothing
		defer j.Close()
		res, err := experiments.Figure19Ctx(context.Background(), lab, nil, j)
		if err != nil {
			return nil, err
		}
		return res, nil
	case "fig20":
		return experiments.Figure20(lab, []int{1, 16, 32}), nil
	case "zeroday":
		return experiments.ZeroDayTPR(lab, []isa.Class{
			isa.ClassRDRANDCovert, isa.ClassFlushConflict,
			isa.ClassMedusaCacheIndex, isa.ClassDRAMA,
			isa.ClassMicroScope, isa.ClassLeakyBuddies,
			isa.ClassSMotherSpectre,
		}), nil
	}
	return nil, fmt.Errorf("evaxbench: unknown experiment %q (try -list)", id)
}
