package experiments

import (
	"reflect"
	"testing"

	"evax/internal/defense"
	"evax/internal/isa"
	"evax/internal/runner"
)

// TestExperimentsParallelEquivalence checks the runner determinism contract
// at the experiment layer: a figure driver re-run with a different worker
// count must return a bit-identical result. Figure 17 covers the fuzz-sweep
// shape (per-tool jobs with cloned detectors); ZeroDayTPR covers the
// retrain-per-fold shape; the benign reference runs cover the background
// fan-out NewLab overlaps with training, and Figures 14 and 16 the replay
// over them. All share the quick lab, so only the fan-out width changes
// between runs.
func TestExperimentsParallelEquivalence(t *testing.T) {
	lab := quickLab(t)
	restore := lab.Opts.Jobs
	defer func() { lab.Opts.Jobs = restore }()

	classes := []isa.Class{isa.ClassRDRANDCovert, isa.ClassDRAMA}
	refs := func() []benignRef {
		lab.DropReferenceRuns()
		lab.overlapReferenceRuns()()
		return lab.referenceRuns()
	}

	lab.Opts.Jobs = 1
	seqFig := Figure17(lab, 2)
	seqZD := ZeroDayTPR(lab, classes)
	seqRefs := refs()
	seq14, seq16 := Figure14(lab), Figure16(lab)

	for _, jobs := range []int{4, 0} { // 0 = GOMAXPROCS
		lab.Opts.Jobs = jobs
		if got := Figure17(lab, 2); !reflect.DeepEqual(seqFig, got) {
			t.Fatalf("Figure17 at jobs=%d diverged from the sequential reference", jobs)
		}
		if got := ZeroDayTPR(lab, classes); !reflect.DeepEqual(seqZD, got) {
			t.Fatalf("ZeroDayTPR at jobs=%d diverged from the sequential reference", jobs)
		}
		if got := refs(); !reflect.DeepEqual(seqRefs, got) {
			t.Fatalf("reference runs at jobs=%d diverged from the sequential reference", jobs)
		}
		if got := Figure14(lab); !reflect.DeepEqual(seq14, got) {
			t.Fatalf("Figure14 at jobs=%d diverged from the sequential reference", jobs)
		}
		if got := Figure16(lab); !reflect.DeepEqual(seq16, got) {
			t.Fatalf("Figure16 at jobs=%d diverged from the sequential reference", jobs)
		}
	}
}

// TestFiguresMatchOracle: the replaying Figure14 and Figure16 equal the
// drivers that simulate every run, on the quick lab and on a lab whose EVAX
// detector has a lowered threshold, so that some but not all workloads'
// recordings flag and take the fallback to a full protected run.
func TestFiguresMatchOracle(t *testing.T) {
	lab := quickLab(t)
	check := func(name string, l *Lab) {
		t.Helper()
		if got, want := Figure14(l), figure14Oracle(l); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Figure14 differs from the oracle:\n%v\nwant\n%v", name, got, want)
		}
		if got, want := Figure16(l), figure16Oracle(l); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Figure16 differs from the oracle:\n%v\nwant\n%v", name, got, want)
		}
	}
	check("quick lab", lab)

	// flagged counts the workloads whose Figure 16 recording l's EVAX
	// detector flags.
	refs := lab.referenceRuns()
	flagged := func(l *Lab) int {
		n := 0
		for _, ref := range refs {
			if ref.rec16.Gate(defense.NewDetectorFlagger(l.EVAX.Clone(), l.DS)).FirstFlag() >= 0 {
				n++
			}
		}
		return n
	}
	low := *lab // shares the reference runs: they do not depend on detectors
	for _, fpr := range []float64{0.02, 0.05, 0.1, 0.2, 0.3, 0.5} {
		low.EVAX = lab.EVAX.Clone()
		low.tuneThresholdAt(low.EVAX, fpr)
		if n := flagged(&low); n > 0 && n < len(refs) {
			t.Logf("EVAX at benign FPR %g flags %d of %d recordings", fpr, n, len(refs))
			check("lowered EVAX threshold", &low)
			return
		}
	}
	t.Fatal("no lowered threshold flags some but not all recordings")
}

// TestFiguresConcurrentCallers: Figure14 and Figure16 may run at once on
// one lab; after a drop the first to take the lab's lock starts the
// reference runs, both wait on them, and both equal their sequential
// results.
func TestFiguresConcurrentCallers(t *testing.T) {
	lab := quickLab(t)
	want14, want16 := Figure14(lab), Figure16(lab)
	lab.DropReferenceRuns()
	got := runner.Map(runner.Options{Jobs: 2}, 2, func(i int) any {
		if i == 0 {
			return Figure14(lab)
		}
		return Figure16(lab)
	})
	if !reflect.DeepEqual(got[0], want14) || !reflect.DeepEqual(got[1], want16) {
		t.Fatal("concurrent Figure14/Figure16 differ from sequential calls")
	}
}
