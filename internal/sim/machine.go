package sim

import (
	"fmt"

	"evax/internal/branch"
	"evax/internal/cache"
	"evax/internal/dram"
	"evax/internal/isa"
	"evax/internal/tlb"
)

// robEntry is one in-flight micro-op.
type robEntry struct {
	seq     uint64
	instIdx int
	kind    isa.Kind
	phase   isa.Phase
	hasDest bool

	execStart uint64 // cycle issue/execution begins
	doneAt    uint64 // cycle the result is available

	wrongPath bool // dispatched under a known-wrong path

	// Control-flow resolution.
	isCtrl     bool
	mispredict bool
	actualNext int
	predDir    branch.Direction
	hasPredDir bool
	btbPred    int
	btbHad     bool
	rasUsed    bool
	rasCorrect bool

	// Memory.
	isLoad   bool
	isStore  bool
	ea       uint64
	specLoad bool // routed through the InvisiSpec buffer
	// didCacheAccess records that the op really touched the cache
	// hierarchy; a squashed load with this set is a transient leak
	// candidate (the security ground truth the experiments measure).
	didCacheAccess bool

	// Commit-time replay triggers.
	fault        bool   // kernel permission fault (Meltdown window)
	assistReplay bool   // microcode assist / LVI-style injection replay
	stlViolation bool   // load bypassed an unresolved older store
	squashAtEst  uint64 // estimated commit/squash cycle for replay loads

	// destValue is the architectural result recorded at dispatch. For
	// replay loads it is the correct post-replay value; the transient
	// value lives only in the speculative register file.
	destValue uint64
	dest      isa.Reg

	ckpt *checkpoint
}

// checkpoint captures speculative register/control state for squash
// recovery. SQ/LQ occupancy is unwound by ROB truncation, not here. For
// control ops the snapshot reflects state just *after* the op's own
// functional effects; for replay loads, just *before* the transient
// destination write.
type checkpoint struct {
	specRegs  [isa.NumRegs]uint64
	regReady  [isa.NumRegs]uint64
	callStack []int
	ras       branch.RASSnapshot
}

// redirect records the pending squash for a right-path mispredicted control
// op (at most one exists: everything fetched after it is wrong-path). The
// owner, found by seq, holds the checkpoint: it cannot commit before the
// squash fires.
type redirect struct {
	seq        uint64
	doneAt     uint64 // resolution cycle, when the squash fires
	actualNext int
}

// sqEntry is an in-flight store. Address and data readiness are tracked
// separately: a load may forward from a store whose address is known even if
// the data arrives later, but a store with an unresolved address is invisible
// to younger loads — the Spectre-STL bypass condition.
type sqEntry struct {
	seq    uint64
	addr   uint64 // word-aligned
	value  uint64
	addrAt uint64 // address resolution cycle
	dataAt uint64 // data ready cycle
}

// issueQueue tracks the issue cycles of queued micro-ops: the issue
// queue's occupancy. Only its size and its minimum are observable. It keeps
// the cycles sorted ascending in c[head:]: issue cycles arrive nearly in
// order, so an insertion rarely moves more than an entry or two, and
// draining is a walk of head. Its storage is preallocated in New, and fetch
// admits a micro-op only while fewer than IQEntries are queued, so it never
// grows.
type issueQueue struct {
	c    []uint64
	head int
}

func (q *issueQueue) len() int { return len(q.c) - q.head }

// min returns the earliest queued cycle; the queue must not be empty.
func (q *issueQueue) min() uint64 { return q.c[q.head] }

func (q *issueQueue) push(cycle uint64) {
	c := q.c
	if len(c) == cap(c) {
		c = c[:copy(c[:cap(c)], c[q.head:])]
		q.head = 0
	}
	i := len(c)
	c = c[:i+1]
	for i > q.head && c[i-1] > cycle {
		c[i] = c[i-1]
		i--
	}
	c[i] = cycle
	q.c = c
}

// drain removes every entry at or before cycle and returns how many.
func (q *issueQueue) drain(cycle uint64) uint64 {
	h := q.head
	for h < len(q.c) && q.c[h] <= cycle {
		h++
	}
	n := uint64(h - q.head)
	if h == len(q.c) {
		q.c, h = q.c[:0], 0
	}
	q.head = h
	return n
}

func (q *issueQueue) reset() { q.c, q.head = q.c[:0], 0 }

// Counters holds the machine-level bookkeeping that is NOT part of the HPC
// catalog: defense telemetry and security ground truth. Every
// catalog-exposed event lives in the flat Machine.ctr array, addressed by
// CtrID (see counters.go).
type Counters struct {
	MemCorruptions   uint64 // Rowhammer bit flips applied to memory
	DefenseSwitches  uint64
	DefenseActiveCyc uint64

	// LeakedTransientLoads counts squashed loads that really modified
	// cache state — the "leakage occurred" ground truth for the security
	// experiments. It is NOT exposed to the detector's feature catalog.
	LeakedTransientLoads uint64
}

// Machine is one simulated core running one program.
type Machine struct {
	cfg  Config
	prog *isa.Program

	bp      *branch.Predictor
	l1i     *cache.Cache
	l1d     *cache.Cache
	l2      *cache.Cache
	dtlb    *tlb.TLB
	itlb    *tlb.TLB
	mem     *dram.DRAM
	specBuf *cache.SpecBuffer
	pf      *stridePrefetcher

	// Architectural state.
	archRegs [isa.NumRegs]uint64
	memory   map[uint64]uint64

	// Speculative state along the fetch path.
	specRegs  [isa.NumRegs]uint64
	regReady  [isa.NumRegs]uint64
	callStack []int

	// rob is a ring of in-flight micro-ops, allocated once in New: its
	// length is the power of two at or above ROBEntries, and robHead and
	// robTail are ever-increasing logical positions (slot = pos&robMask).
	// Fetch never lets more than ROBEntries be live, so it never wraps
	// onto a live entry.
	rob     []robEntry
	robMask int
	robHead int
	robTail int
	seq     uint64

	// sq is the store queue, a window over sqBuf: commit slides its
	// start, and dispatch moves it back to the front of sqBuf once it
	// reaches the end, so it never reallocates.
	sq            []sqEntry
	sqBuf         []sqEntry
	lqCount       int
	inFlightDests int
	iq            issueQueue

	// ckptFree recycles checkpoints: one is taken per mispredicted control
	// op or replay load and returned when its entry commits, replays or is
	// squashed.
	ckptFree []*checkpoint

	fetchIdx      int
	fetchReadyAt  uint64
	lastFetchLine uint64
	quiescing     bool

	// pendingRedirect is valid while redirecting is set: a right-path
	// mispredicted control op awaits resolution (at most one can exist).
	pendingRedirect redirect
	redirecting     bool

	// inFlightCtrl counts dispatched-but-uncommitted control ops; the
	// InvisiSpec Spectre model treats loads issued under any of them as
	// unsafe (their visibility point is the last older branch's commit).
	inFlightCtrl int

	// pendingReplays counts in-flight loads that will squash at commit
	// (faults, assists, memory-order violations); replayGate is the
	// estimated squash cycle of the oldest such load — micro-ops whose
	// execution would begin at or after it never actually execute.
	pendingReplays int
	replayGate     uint64

	// Serialization barriers (cycle numbers younger ops must wait for).
	serializeBarrier uint64 // LFence/serialize: all younger ops
	memBarrier       uint64 // MFence: younger memory ops
	maxDoneAll       uint64 // running max doneAt of all dispatched ops
	maxDoneMem       uint64 // running max doneAt of memory ops
	maxDoneCtrl      uint64 // running max doneAt of control ops
	branchFence      uint64 // fence-after-branch barrier (LFENCE semantics)

	// Execution unit free cycles.
	aluFree   []uint64
	multFree  []uint64
	divFree   []uint64
	fpFree    []uint64
	loadFree  []uint64
	storeFree []uint64
	rngFree   uint64

	cycle            uint64
	committed        uint64
	commitStallUntil uint64 // InvisiSpec exposure/validation backpressure
	policy           Policy

	flipsApplied int

	// Phase histogram, incremented at dispatch (leaking micro-ops often
	// never commit, so dispatch-time attribution is what the detector's
	// ground truth needs).
	phaseDispatched [6]uint64

	// ctr is the flat catalog-counter array, indexed by CtrID. The
	// pipeline increments machine-level slots directly; component-backed
	// slots are folded in by syncCounters through links (resolved once in
	// New). ReadCounters is then a sync plus one copy.
	ctr   [NumCounters]uint64
	links []ctrLink

	C Counters

	rng uint64 // architectural RDRAND state (matches isa.Interp)

	done bool
}

// New creates a machine for prog.
func New(cfg Config, prog *isa.Program) *Machine {
	m := &Machine{
		cfg:    cfg,
		prog:   prog,
		bp:     branch.New(cfg.Branch),
		memory: make(map[uint64]uint64, len(prog.InitMem)),
	}
	m.mem = dram.New(cfg.DRAM)
	m.l2 = cache.New(cfg.L2, m.mem)
	m.l1d = cache.New(cfg.L1D, m.l2)
	m.l1i = cache.New(cfg.L1I, m.l2)
	m.dtlb = tlb.New(cfg.DTLB)
	m.itlb = tlb.New(cfg.ITLB)
	m.specBuf = cache.NewSpecBuffer(m.l1d, cfg.SpecBufferEntries)
	if cfg.Prefetcher.Enabled {
		m.pf = newStridePrefetcher(cfg.Prefetcher)
	}

	for r, v := range prog.InitRegs {
		m.archRegs[r] = v
		m.specRegs[r] = v
	}
	for a, v := range prog.InitMem {
		m.memory[a&^7] = v
	}
	m.aluFree = make([]uint64, cfg.IntALUs)
	m.multFree = make([]uint64, cfg.IntMults)
	m.divFree = make([]uint64, cfg.IntDivs)
	m.fpFree = make([]uint64, cfg.FPUnits)
	m.loadFree = make([]uint64, cfg.LoadPorts)
	m.storeFree = make([]uint64, cfg.StorePort)
	robSize := 1
	for robSize < cfg.ROBEntries {
		robSize *= 2
	}
	m.rob = make([]robEntry, robSize)
	m.robMask = robSize - 1
	m.sqBuf = make([]sqEntry, 2*cfg.SQEntries)
	m.sq = m.sqBuf[:0]
	m.iq.c = make([]uint64, 0, 2*cfg.IQEntries+cfg.FetchWidth)
	m.links = m.counterLinks()
	return m
}

// Program returns the running program.
func (m *Machine) Program() *isa.Program { return m.prog }

// Cycles returns the elapsed cycle count.
func (m *Machine) Cycles() uint64 { return m.cycle }

// Instructions returns committed instructions.
func (m *Machine) Instructions() uint64 { return m.committed }

// Done reports whether the program has run to completion.
func (m *Machine) Done() bool { return m.done }

// IPC returns committed instructions per cycle so far.
func (m *Machine) IPC() float64 {
	if m.cycle == 0 {
		return 0
	}
	return float64(m.committed) / float64(m.cycle)
}

// Policy returns the active defense policy.
func (m *Machine) Policy() Policy { return m.policy }

// SetPolicy switches the defense policy (the adaptive controller's lever).
func (m *Machine) SetPolicy(p Policy) {
	if p != m.policy {
		m.C.DefenseSwitches++
	}
	m.policy = p
}

// ArchReg reads an architectural register (committed state).
func (m *Machine) ArchReg(r isa.Reg) uint64 {
	if r == isa.R0 {
		return 0
	}
	return m.archRegs[r]
}

// MemWord reads committed memory.
func (m *Machine) MemWord(addr uint64) uint64 { return m.memory[addr&^7] }

// L1D exposes the data cache (tests and attack verification).
func (m *Machine) L1D() *cache.Cache { return m.l1d }

// L2 exposes the shared cache.
func (m *Machine) L2() *cache.Cache { return m.l2 }

// DRAM exposes the memory model.
func (m *Machine) DRAM() *dram.DRAM { return m.mem }

// Predictor exposes the branch predictor.
func (m *Machine) Predictor() *branch.Predictor { return m.bp }

// PrefetchesIssued reports stride-prefetcher activity (0 when disabled).
func (m *Machine) PrefetchesIssued() uint64 {
	if m.pf == nil {
		return 0
	}
	return m.pf.Issued
}

// SpecBufLen reports InvisiSpec buffer occupancy.
func (m *Machine) SpecBufLen() int { return m.specBuf.Len() }

// ROBOccupancy reports in-flight micro-ops.
func (m *Machine) ROBOccupancy() int { return m.robTail - m.robHead }

// robAt returns the ROB entry at logical position pos.
func (m *Machine) robAt(pos int) *robEntry { return &m.rob[pos&m.robMask] }

// PhaseDispatched returns the cumulative dispatch counts per attack phase.
func (m *Machine) PhaseDispatched() [6]uint64 { return m.phaseDispatched }

func (m *Machine) specRead(r isa.Reg) uint64 {
	if r == isa.R0 {
		return 0
	}
	return m.specRegs[r]
}

func (m *Machine) specWrite(r isa.Reg, v uint64) {
	if r != isa.R0 {
		m.specRegs[r] = v
	}
}

// memRead returns the functional value a load observes: the newest older
// store in the SQ for the word, else committed memory.
func (m *Machine) memRead(addr uint64) uint64 {
	w := addr &^ 7
	for i := len(m.sq) - 1; i >= 0; i-- {
		if m.sq[i].addr == w {
			return m.sq[i].value
		}
	}
	return m.memory[w]
}

// takeCheckpoint snapshots the speculative state into a recycled
// checkpoint.
func (m *Machine) takeCheckpoint() *checkpoint {
	var ck *checkpoint
	if n := len(m.ckptFree); n > 0 {
		ck = m.ckptFree[n-1]
		m.ckptFree = m.ckptFree[:n-1]
	} else {
		ck = new(checkpoint) //evaxlint:ignore hotpath pool warm-up; live checkpoints are bounded by the ROB and recycled
	}
	ck.specRegs = m.specRegs
	ck.regReady = m.regReady
	ck.callStack = append(ck.callStack[:0], m.callStack...) //evaxlint:ignore hotpath reuses the pooled checkpoint's storage, grown only to the deepest call stack
	m.bp.SnapshotRASInto(&ck.ras)
	return ck
}

// releaseCheckpoint returns e's checkpoint, if any, to the free list.
func (m *Machine) releaseCheckpoint(e *robEntry) {
	if e.ckpt != nil {
		m.ckptFree = append(m.ckptFree, e.ckpt) //evaxlint:ignore hotpath the free list grows only to the most checkpoints ever live
		e.ckpt = nil
	}
}

func (m *Machine) restoreCheckpoint(ck *checkpoint) {
	m.specRegs = ck.specRegs
	m.regReady = ck.regReady
	m.callStack = append(m.callStack[:0], ck.callStack...) //evaxlint:ignore hotpath reuses the call stack's storage, grown only to the deepest call stack
	m.bp.RestoreRAS(ck.ras)
}

// applyFlips propagates Rowhammer bit flips from the DRAM model into
// functional memory (the paper's dedicated memory-corruption module).
func (m *Machine) applyFlips() {
	flips := m.mem.Flips()
	for ; m.flipsApplied < len(flips); m.flipsApplied++ {
		f := flips[m.flipsApplied]
		rowBytes := uint64(m.mem.RowBytes())
		banks := uint64(m.mem.Banks())
		base := uint64(f.Row) * rowBytes * banks
		addr := (base + uint64(f.Bit/8)) &^ 7
		// Align the address into the right bank by stepping lines.
		for b, _ := m.mem.BankRow(addr); b != f.Bank; b, _ = m.mem.BankRow(addr) {
			addr += 64
		}
		m.memory[addr] ^= 1 << (f.Bit % 64)
		m.C.MemCorruptions++
	}
}

// String summarizes machine state (debugging aid).
func (m *Machine) String() string {
	return fmt.Sprintf("machine{%s cycle=%d committed=%d rob=%d policy=%s}",
		m.prog.Name, m.cycle, m.committed, m.ROBOccupancy(), m.policy)
}
