package branch

import (
	"math/rand"
	"testing"
)

func newTest() *Predictor { return New(DefaultConfig()) }

func TestAlwaysTakenLearned(t *testing.T) {
	p := newTest()
	pc := uint64(0x400100)
	wrong := 0
	for i := 0; i < 200; i++ {
		d := p.PredictDirection(pc)
		if !d.Taken && i > 10 {
			wrong++
		}
		p.UpdateDirection(d, true)
	}
	if wrong != 0 {
		t.Fatalf("always-taken branch mispredicted %d times after warmup", wrong)
	}
}

func TestAlternatingPatternLearnedByLocal(t *testing.T) {
	// A strict T/NT alternation is captured by local history.
	p := newTest()
	pc := uint64(0x400200)
	taken := false
	wrong := 0
	for i := 0; i < 400; i++ {
		d := p.PredictDirection(pc)
		if i > 100 && d.Taken != taken {
			wrong++
		}
		p.UpdateDirection(d, taken)
		taken = !taken
	}
	if wrong > 10 {
		t.Fatalf("alternating pattern mispredicted %d/300 after warmup", wrong)
	}
}

func TestMispredictCounted(t *testing.T) {
	p := newTest()
	pc := uint64(0x400300)
	// Train taken, then flip: first flip must be a mispredict.
	for i := 0; i < 50; i++ {
		d := p.PredictDirection(pc)
		p.UpdateDirection(d, true)
	}
	before := p.Stats.CondIncorrect
	d := p.PredictDirection(pc)
	if !d.Taken {
		t.Fatal("expected taken prediction after training")
	}
	p.UpdateDirection(d, false)
	if p.Stats.CondIncorrect != before+1 {
		t.Fatalf("mispredict not counted: %d -> %d", before, p.Stats.CondIncorrect)
	}
}

func TestBTBInstallAndHit(t *testing.T) {
	p := newTest()
	pc := uint64(0x400400)
	if _, ok := p.PredictTarget(pc); ok {
		t.Fatal("BTB hit on cold entry")
	}
	p.UpdateTarget(pc, 42, 0, false)
	tgt, ok := p.PredictTarget(pc)
	if !ok || tgt != 42 {
		t.Fatalf("BTB = (%d,%v), want (42,true)", tgt, ok)
	}
	if p.Stats.BTBHits != 1 || p.Stats.BTBLookups != 2 {
		t.Fatalf("stats hits=%d lookups=%d, want 1/2", p.Stats.BTBHits, p.Stats.BTBLookups)
	}
}

func TestBTBAliasingPoison(t *testing.T) {
	// Two PCs that collide in the BTB: training one poisons the other
	// (the Spectre-BTB primitive).
	cfg := DefaultConfig()
	p := New(cfg)
	pcA := uint64(0x1000)
	pcB := pcA + uint64(cfg.BTBEntries) // same index, different tag? tag is pc+1 so miss
	p.UpdateTarget(pcA, 7, 0, false)
	if _, ok := p.PredictTarget(pcB); ok {
		t.Fatal("tag check failed: aliased PC hit")
	}
	// Same PC retrains to a new target: mispredict recorded when old
	// prediction was consumed.
	pred, ok := p.PredictTarget(pcA)
	if !ok {
		t.Fatal("expected hit")
	}
	p.UpdateTarget(pcA, 9, pred, true)
	if p.Stats.BTBMispredicts != 1 {
		t.Fatalf("BTB mispredicts = %d, want 1", p.Stats.BTBMispredicts)
	}
}

func TestRASLIFO(t *testing.T) {
	p := newTest()
	p.PushRAS(10)
	p.PushRAS(20)
	p.PushRAS(30)
	for _, want := range []int{30, 20, 10} {
		got, ok := p.PopRAS()
		if !ok || got != want {
			t.Fatalf("PopRAS = (%d,%v), want (%d,true)", got, ok, want)
		}
	}
	if _, ok := p.PopRAS(); ok {
		t.Fatal("pop from empty RAS succeeded")
	}
	if p.Stats.RASUnderflows != 1 {
		t.Fatalf("underflows = %d, want 1", p.Stats.RASUnderflows)
	}
}

// TestSnapshotRASIntoReusesStorage checks that a recycled snapshot restores
// exactly like a fresh one and, once sized, stops allocating.
func TestSnapshotRASIntoReusesStorage(t *testing.T) {
	p := newTest()
	var s RASSnapshot
	for _, depth := range []int{3, 1, 0, 5} {
		for p.RASDepth() > 0 {
			p.PopRAS()
		}
		for i := 0; i < depth; i++ {
			p.PushRAS(100*depth + i)
		}
		p.SnapshotRASInto(&s)
		fresh := p.SnapshotRAS()
		p.PushRAS(-1) // disturb, then rewind
		p.RestoreRAS(s)
		if p.RASDepth() != fresh.top || s.top != fresh.top {
			t.Fatalf("depth %d: restored to %d, fresh snapshot has %d", depth, p.RASDepth(), fresh.top)
		}
		for i := depth - 1; i >= 0; i-- {
			if got, ok := p.PopRAS(); !ok || got != 100*depth+i {
				t.Fatalf("depth %d: pop = (%d,%v), want %d", depth, got, ok, 100*depth+i)
			}
		}
		p.RestoreRAS(s)
	}
	if a := testing.AllocsPerRun(10, func() { p.SnapshotRASInto(&s) }); a != 0 {
		t.Fatalf("SnapshotRASInto allocates %v times once sized, want 0", a)
	}
}

func TestRASOverflowWraps(t *testing.T) {
	cfg := DefaultConfig()
	p := New(cfg)
	for i := 0; i < cfg.RASEntries+4; i++ {
		p.PushRAS(i)
	}
	if p.Stats.RASOverflows != 4 {
		t.Fatalf("overflows = %d, want 4", p.Stats.RASOverflows)
	}
	// Top of stack is the most recent push; the oldest 4 were dropped.
	got, ok := p.PopRAS()
	if !ok || got != cfg.RASEntries+3 {
		t.Fatalf("top = (%d,%v), want (%d,true)", got, ok, cfg.RASEntries+3)
	}
	// Bottom should now be 4 (0..3 discarded).
	var last int
	for {
		v, ok := p.PopRAS()
		if !ok {
			break
		}
		last = v
	}
	if last != 4 {
		t.Fatalf("oldest surviving entry = %d, want 4", last)
	}
}

func TestRASDepth(t *testing.T) {
	p := newTest()
	if p.RASDepth() != 0 {
		t.Fatal("fresh RAS not empty")
	}
	p.PushRAS(1)
	p.PushRAS(2)
	if p.RASDepth() != 2 {
		t.Fatalf("depth = %d, want 2", p.RASDepth())
	}
}

func TestChooserPrefersBetterComponent(t *testing.T) {
	// A branch whose outcome correlates with global history but not with
	// its own local history should drive the chooser toward global.
	p := newTest()
	rng := rand.New(rand.NewSource(7))
	// Branch A's outcome equals branch B's last outcome (global corr).
	pcA, pcB := uint64(0x500000), uint64(0x600010)
	lastB := false
	for i := 0; i < 2000; i++ {
		dB := p.PredictDirection(pcB)
		outB := rng.Intn(2) == 0
		p.UpdateDirection(dB, outB)
		dA := p.PredictDirection(pcA)
		p.UpdateDirection(dA, lastB)
		lastB = outB
	}
	if p.Stats.GlobalUsed == 0 {
		t.Fatal("chooser never selected global predictor")
	}
}

func TestMistrainAliasingCounter(t *testing.T) {
	cfg := DefaultConfig()
	p := New(cfg)
	pcA := uint64(0x100)
	pcB := pcA + uint64(cfg.LocalTableSize) // same local index
	dA := p.PredictDirection(pcA)
	p.UpdateDirection(dA, true)
	dB := p.PredictDirection(pcB)
	p.UpdateDirection(dB, true)
	if p.Stats.MistrainAliasing == 0 {
		t.Fatal("aliasing update not counted")
	}
}

func TestResetStats(t *testing.T) {
	p := newTest()
	d := p.PredictDirection(1)
	p.UpdateDirection(d, true)
	p.ResetStats()
	if p.Stats != (Stats{}) {
		t.Fatalf("stats not zeroed: %+v", p.Stats)
	}
}
