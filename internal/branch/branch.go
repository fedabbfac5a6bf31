// Package branch implements the front-end prediction structures of the
// simulated core: a tournament direction predictor (local + global history
// with a choice table), a branch target buffer, and a return address stack —
// the configuration given in the paper's Table II (tournament predictor,
// 4096 BTB entries, 16 RAS entries).
//
// These structures are first-class attack surfaces: Spectre-PHT mistrains
// the direction tables, Spectre-BTB poisons the BTB, Spectre-RSB
// over/underflows the RAS, and BranchScope reads directional state back out
// through timing. The predictor therefore exposes its internal state
// transitions through counters consumed by internal/hpc.
package branch

// Config sizes the prediction structures.
type Config struct {
	LocalHistoryBits  int // bits of per-branch local history
	LocalTableSize    int // entries in the local pattern table
	GlobalHistoryBits int // bits of global history
	GlobalTableSize   int // entries in the global pattern table
	ChoiceTableSize   int // entries in the chooser
	BTBEntries        int // branch target buffer entries
	RASEntries        int // return address stack depth
}

// DefaultConfig mirrors Table II of the paper.
func DefaultConfig() Config {
	return Config{
		LocalHistoryBits:  10,
		LocalTableSize:    2048,
		GlobalHistoryBits: 12,
		GlobalTableSize:   4096,
		ChoiceTableSize:   4096,
		BTBEntries:        4096,
		RASEntries:        16,
	}
}

// Stats counts predictor events; the HPC fabric snapshots these.
type Stats struct {
	Lookups          uint64 // conditional direction predictions made
	CondPredicted    uint64 // conditional branches predicted taken
	CondIncorrect    uint64 // direction mispredictions
	BTBLookups       uint64
	BTBHits          uint64
	BTBMispredicts   uint64 // wrong target from BTB
	RASUsed          uint64 // return predictions served by RAS
	RASIncorrect     uint64 // RAS target mispredictions
	RASOverflows     uint64 // pushes that wrapped the stack
	RASUnderflows    uint64 // pops from an empty stack
	LocalUsed        uint64 // chooser selected the local predictor
	GlobalUsed       uint64 // chooser selected the global predictor
	ChoiceFlips      uint64 // chooser counter direction changes
	MistrainAliasing uint64 // updates that changed a counter trained by a different PC
}

// Predictor is the tournament branch predictor with BTB and RAS.
type Predictor struct {
	cfg Config

	localHist  []uint32 // per-branch history registers, indexed by PC hash
	localTable []uint8  // 2-bit saturating counters indexed by local history
	globalHist uint32
	globalTbl  []uint8 // 2-bit counters indexed by global history ^ PC
	choice     []uint8 // 2-bit chooser: >=2 means "use global"

	btbTag  []uint64
	btbTarg []int
	btbPC   []uint64 // owner PC of each local-table entry, for aliasing stats

	ras    []int
	rasTop int // number of valid entries (capped speculative stack)

	Stats Stats
}

// New creates a predictor with the given configuration.
func New(cfg Config) *Predictor {
	p := &Predictor{
		cfg:        cfg,
		localHist:  make([]uint32, cfg.LocalTableSize),
		localTable: make([]uint8, cfg.LocalTableSize),
		globalTbl:  make([]uint8, cfg.GlobalTableSize),
		choice:     make([]uint8, cfg.ChoiceTableSize),
		btbTag:     make([]uint64, cfg.BTBEntries),
		btbTarg:    make([]int, cfg.BTBEntries),
		btbPC:      make([]uint64, cfg.LocalTableSize),
		ras:        make([]int, cfg.RASEntries),
	}
	// Weakly-taken initial counters, per common practice.
	for i := range p.localTable {
		p.localTable[i] = 1
	}
	for i := range p.globalTbl {
		p.globalTbl[i] = 1
	}
	for i := range p.choice {
		p.choice[i] = 1
	}
	return p
}

func (p *Predictor) localIdx(pc uint64) int {
	return int(pc % uint64(p.cfg.LocalTableSize))
}

func (p *Predictor) localPatIdx(pc uint64) int {
	h := p.localHist[p.localIdx(pc)]
	mask := uint32(1)<<p.cfg.LocalHistoryBits - 1
	return int((h & mask)) % p.cfg.LocalTableSize
}

func (p *Predictor) globalIdx(pc uint64) int {
	mask := uint32(1)<<p.cfg.GlobalHistoryBits - 1
	return int((uint64(p.globalHist&mask) ^ pc)) % p.cfg.GlobalTableSize
}

func (p *Predictor) choiceIdx(pc uint64) int {
	return int(pc % uint64(p.cfg.ChoiceTableSize))
}

// Direction holds the state captured at prediction time so that the update
// after resolution touches the same entries even if histories moved on.
type Direction struct {
	PC        uint64
	Taken     bool
	usedLocal bool
	localPat  int
	globalIdx int
	choiceIdx int
}

// PredictDirection predicts the direction of the conditional branch at pc.
func (p *Predictor) PredictDirection(pc uint64) Direction {
	p.Stats.Lookups++
	li := p.localPatIdx(pc)
	gi := p.globalIdx(pc)
	ci := p.choiceIdx(pc)
	localTaken := p.localTable[li] >= 2
	globalTaken := p.globalTbl[gi] >= 2
	useGlobal := p.choice[ci] >= 2
	taken := localTaken
	if useGlobal {
		taken = globalTaken
		p.Stats.GlobalUsed++
	} else {
		p.Stats.LocalUsed++
	}
	if taken {
		p.Stats.CondPredicted++
	}
	return Direction{PC: pc, Taken: taken, usedLocal: !useGlobal, localPat: li, globalIdx: gi, choiceIdx: ci}
}

func bump(c *uint8, up bool) {
	if up {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

// UpdateDirection trains the predictor with the resolved outcome.
func (p *Predictor) UpdateDirection(d Direction, taken bool) {
	if d.Taken != taken {
		p.Stats.CondIncorrect++
	}
	li := p.localIdx(d.PC)
	if owner := p.btbPC[li]; owner != 0 && owner != d.PC {
		p.Stats.MistrainAliasing++
	}
	p.btbPC[li] = d.PC

	localWas := p.localTable[d.localPat] >= 2
	globalWas := p.globalTbl[d.globalIdx] >= 2
	// Train the chooser only when the components disagree.
	if localWas != globalWas {
		before := p.choice[d.choiceIdx] >= 2
		bump(&p.choice[d.choiceIdx], globalWas == taken)
		if after := p.choice[d.choiceIdx] >= 2; after != before {
			p.Stats.ChoiceFlips++
		}
	}
	bump(&p.localTable[d.localPat], taken)
	bump(&p.globalTbl[d.globalIdx], taken)
	// Update histories.
	h := &p.localHist[li]
	*h = *h<<1 | b2u32(taken)
	p.globalHist = p.globalHist<<1 | b2u32(taken)
}

func b2u32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// PredictTarget consults the BTB for the target of the control-flow
// instruction at pc. ok is false on a BTB miss.
func (p *Predictor) PredictTarget(pc uint64) (target int, ok bool) {
	p.Stats.BTBLookups++
	i := int(pc % uint64(p.cfg.BTBEntries))
	if p.btbTag[i] == pc+1 { // +1 so zero means empty
		p.Stats.BTBHits++
		return p.btbTarg[i], true
	}
	return 0, false
}

// UpdateTarget installs or corrects a BTB entry; wrong reports whether the
// previous prediction from this entry was wrong.
func (p *Predictor) UpdateTarget(pc uint64, target int, predicted int, hadPrediction bool) {
	if hadPrediction && predicted != target {
		p.Stats.BTBMispredicts++
	}
	i := int(pc % uint64(p.cfg.BTBEntries))
	p.btbTag[i] = pc + 1
	p.btbTarg[i] = target
}

// PushRAS records a call's return index on the return address stack.
func (p *Predictor) PushRAS(retIdx int) {
	if p.rasTop == p.cfg.RASEntries {
		// Overflow: wrap, discarding the oldest entry.
		p.Stats.RASOverflows++
		copy(p.ras, p.ras[1:])
		p.ras[p.cfg.RASEntries-1] = retIdx
		return
	}
	p.ras[p.rasTop] = retIdx
	p.rasTop++
}

// PopRAS predicts a return target. ok is false on underflow.
func (p *Predictor) PopRAS() (target int, ok bool) {
	if p.rasTop == 0 {
		p.Stats.RASUnderflows++
		return 0, false
	}
	p.rasTop--
	p.Stats.RASUsed++
	return p.ras[p.rasTop], true
}

// RecordRASOutcome tallies whether a RAS-served prediction was correct.
func (p *Predictor) RecordRASOutcome(correct bool) {
	if !correct {
		p.Stats.RASIncorrect++
	}
}

// RASDepth exposes the current stack depth (for HPC sampling).
func (p *Predictor) RASDepth() int { return p.rasTop }

// RASSnapshot captures the speculative return-stack state so a pipeline
// squash can restore it.
type RASSnapshot struct {
	stack []int
	top   int
}

// SnapshotRAS captures the current RAS contents.
func (p *Predictor) SnapshotRAS() RASSnapshot {
	var s RASSnapshot
	p.SnapshotRASInto(&s)
	return s
}

// SnapshotRASInto captures the current RAS contents into s, reusing its
// storage: a recycled snapshot stops allocating once it has held a full
// stack.
func (p *Predictor) SnapshotRASInto(s *RASSnapshot) {
	s.stack = append(s.stack[:0], p.ras[:p.rasTop]...) //evaxlint:ignore hotpath reuses the snapshot's storage, grown only to RASEntries
	s.top = p.rasTop
}

// RestoreRAS rewinds the RAS to a snapshot (misprediction recovery).
func (p *Predictor) RestoreRAS(s RASSnapshot) {
	copy(p.ras, s.stack)
	p.rasTop = s.top
}

// ResetStats zeroes the statistics block (used between sampling windows in
// tests; the HPC fabric normally snapshots deltas instead).
func (p *Predictor) ResetStats() { p.Stats = Stats{} }
