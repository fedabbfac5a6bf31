package sim

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"evax/internal/attacks"
	"evax/internal/workload"
)

// goldenCounterDigest pins every counter, cycle and committed-instruction
// count of every attack under every defense policy, plus two benign kernels
// with the stride prefetcher on. Any change to pipeline timing or
// bookkeeping moves it.
const goldenCounterDigest uint64 = 0x9984ab3e1a49c22f

func TestCounterGolden(t *testing.T) {
	h := fnv.New64a()
	var b [8]byte
	fold := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	ctr := make([]uint64, NumCounters)
	run := func(m *Machine) {
		m.Run(200_000)
		m.ReadCounters(ctr)
		fold(ctr...)
		fold(m.Cycles(), m.Instructions(), m.C.MemCorruptions,
			m.C.DefenseActiveCyc, m.C.LeakedTransientLoads, m.PrefetchesIssued())
		ph := m.PhaseDispatched()
		fold(ph[:]...)
	}
	for _, s := range attacks.All() {
		for p := PolicyNone; p <= PolicyInvisiSpecFuturistic; p++ {
			m := New(DefaultConfig(), s.Build(7, 1))
			m.SetPolicy(p)
			run(m)
		}
	}
	cfg := DefaultConfig()
	cfg.Prefetcher.Enabled = true
	run(New(cfg, workload.Compress(1, 2)))
	run(New(cfg, workload.AStar(1, 1)))
	if got := h.Sum64(); got != goldenCounterDigest {
		t.Fatalf("counter digest %#x, want %#x", got, goldenCounterDigest)
	}
}
