package sim

import (
	"testing"

	"evax/internal/attacks"
	"evax/internal/isa"
)

// TestRunCyclesAllocFree pins the steady-state cycle loop at zero
// allocations on a mispredict-heavy program (checkpoint per mispredict)
// and on replay-heavy ones (checkpoint per memory-order violation, fault
// or assist), once the pools have warmed up.
func TestRunCyclesAllocFree(t *testing.T) {
	cases := []struct {
		name  string
		build func(int64, int) *isa.Program
		event CtrID
	}{
		{"spectre-pht", attacks.SpectrePHT, CtrIEWBranchMispredicts},
		{"spectre-stl", attacks.SpectreSTL, CtrIEWMemOrderViolation},
		{"lvi", attacks.LVI, CtrLSQIgnoredResponses},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := New(DefaultConfig(), c.build(11, 64))
			m.RunCycles(50_000)
			before := m.Ctr(c.event)
			allocs := testing.AllocsPerRun(20, func() { m.RunCycles(5_000) })
			if m.Done() {
				t.Fatal("program finished inside the measured window")
			}
			if m.Ctr(c.event) == before {
				t.Fatalf("no %s events in the measured window", CounterCatalog().Name(int(c.event)))
			}
			if allocs != 0 {
				t.Fatalf("RunCycles(5000) allocates %v times per call, want 0", allocs)
			}
		})
	}
}
