package sim

import "evax/internal/isa"

// Step advances the machine by one cycle. It returns true if any micro-op
// was committed, squashed, resolved or dispatched (progress), which Run
// uses to fast-forward idle stretches.
//
//evaxlint:hotpath
func (m *Machine) Step() bool {
	if m.done {
		return false
	}
	m.cycle++
	if m.policy != PolicyNone {
		m.C.DefenseActiveCyc++
	}
	m.ctr[CtrROBReads] += uint64(m.ROBOccupancy())
	progress := false
	if m.resolveStage() {
		progress = true
	}
	if m.commitStage() {
		progress = true
	}
	if m.fetchStage() {
		progress = true
	}
	m.applyFlips()
	return progress
}

// Run advances until the program completes or maxInstr instructions commit.
// Idle stretches (everything waiting on a long-latency event) are
// fast-forwarded without per-cycle stepping.
func (m *Machine) Run(maxInstr uint64) {
	for !m.done && m.committed < maxInstr {
		if !m.Step() {
			m.skipAhead()
		}
	}
}

// RunCycles advances by at most n cycles (used by samplers and the adaptive
// controller to interleave detection with execution).
func (m *Machine) RunCycles(n uint64) {
	target := m.cycle + n
	for !m.done && m.cycle < target {
		if !m.Step() {
			m.skipAhead()
		}
	}
}

// skipAhead jumps the clock to the next cycle at which anything can happen.
func (m *Machine) skipAhead() {
	next := ^uint64(0)
	consider := func(c uint64) {
		if c > m.cycle && c < next {
			next = c
		}
	}
	if m.robHead < m.robTail {
		consider(m.robAt(m.robHead).doneAt + 1)
	}
	if m.redirecting {
		consider(m.pendingRedirect.doneAt)
	}
	consider(m.fetchReadyAt)
	if m.iq.len() > 0 {
		consider(m.iq.min())
	}
	if next == ^uint64(0) || next <= m.cycle+1 {
		return
	}
	delta := next - m.cycle - 1
	m.cycle += delta
	m.ctr[CtrFetchStallCycles] += delta
	m.ctr[CtrROBReads] += delta * uint64(m.ROBOccupancy())
	if m.policy != PolicyNone {
		m.C.DefenseActiveCyc += delta
	}
	if m.quiescing {
		m.ctr[CtrFetchPendingQuiesceStallCycles] += delta
		m.ctr[CtrFetchQuiesceCycles] += delta
	}
}

// resolveStage fires the squash for a resolved right-path misprediction.
func (m *Machine) resolveStage() bool {
	r := &m.pendingRedirect
	if !m.redirecting || m.cycle < r.doneAt {
		return false
	}
	m.ctr[CtrIEWBranchMispredicts]++
	// Find the owner's position in the ROB.
	pos := m.findROB(r.seq)
	m.squashYoungerThan(pos)
	m.restoreCheckpoint(m.robAt(pos).ckpt)
	m.redirecting = false
	m.fetchIdx = r.actualNext
	m.fetchReadyAt = m.cycle + m.cfg.SquashPenalty
	m.ctr[CtrFetchSquashCycles] += m.cfg.SquashPenalty
	m.forceLineRefetch()
	return true
}

func (m *Machine) findROB(seq uint64) int {
	for i := m.robHead; i < m.robTail; i++ {
		if m.robAt(i).seq == seq {
			return i
		}
	}
	return m.robTail - 1
}

// squashYoungerThan removes every ROB entry younger than position pos,
// unwinding queues and counters.
func (m *Machine) squashYoungerThan(pos int) {
	ownerSeq := m.robAt(pos).seq
	for i := m.robTail - 1; i > pos; i-- {
		e := m.robAt(i)
		m.ctr[CtrCommitSquashedInsts]++
		m.ctr[CtrIQSquashedInstsExamined]++
		if e.execStart <= m.cycle {
			m.ctr[CtrIEWExecSquashedInsts]++
		}
		if e.isLoad {
			m.lqCount--
			m.ctr[CtrLSQSquashedLoads]++
			if e.fault || e.assistReplay {
				m.ctr[CtrIQSquashedNonSpecLD]++
			}
			if e.fault || e.assistReplay || e.stlViolation {
				m.pendingReplays--
			}
			if e.specLoad {
				m.specBuf.Squash(e.ea)
			}
			if e.didCacheAccess {
				m.C.LeakedTransientLoads++
			}
		}
		if e.isStore {
			m.ctr[CtrLSQSquashedStores]++
		}
		if e.isCtrl {
			m.inFlightCtrl--
		}
		if e.hasDest {
			m.inFlightDests--
			m.ctr[CtrRenameUndone]++
		}
		m.releaseCheckpoint(e)
	}
	// Drop squashed stores from the SQ (they are the entries with seq
	// greater than the owner's).
	keep := len(m.sq)
	for keep > 0 && m.sq[keep-1].seq > ownerSeq {
		keep--
	}
	m.sq = m.sq[:keep]
	m.robTail = pos + 1
	// Rebuild the issue-queue occupancy from surviving entries (never
	// more than it held, so it stays within its capacity).
	m.iq.reset()
	for i := m.robHead; i < m.robTail; i++ {
		if c := m.robAt(i).execStart; c > m.cycle {
			m.iq.push(c)
		}
	}
	m.recomputeReplayGate()
}

// recomputeReplayGate refreshes the gate after squashes changed the set of
// in-flight replay loads.
func (m *Machine) recomputeReplayGate() {
	if m.pendingReplays == 0 {
		m.replayGate = 0
		return
	}
	gate := ^uint64(0)
	for i := m.robHead; i < m.robTail; i++ {
		e := m.robAt(i)
		if (e.fault || e.assistReplay || e.stlViolation) && e.squashAtEst < gate {
			gate = e.squashAtEst
		}
	}
	m.replayGate = gate
}

func (m *Machine) forceLineRefetch() { m.lastFetchLine = ^uint64(0) }

// commitStage retires completed micro-ops in order, firing commit-time
// replays (faults, assists, memory-order violations).
func (m *Machine) commitStage() bool {
	progress := false
	if m.cycle < m.commitStallUntil {
		return false
	}
	for n := 0; n < m.cfg.CommitWidth && m.robHead < m.robTail; n++ {
		e := m.robAt(m.robHead)
		if m.cycle <= e.doneAt {
			break
		}
		if m.redirecting && e.seq == m.pendingRedirect.seq {
			// A mispredicted control op cannot commit before its
			// squash fires in resolveStage.
			break
		}
		progress = true
		m.committed++
		m.ctr[CtrCommitCommittedInsts]++
		replay := e.fault || e.assistReplay || e.stlViolation

		if e.hasDest {
			m.archRegs[e.dest] = e.destValue
			m.ctr[CtrRenameCommittedMaps]++
			m.inFlightDests--
		}
		if e.isLoad {
			m.lqCount--
			m.ctr[CtrCommitLoads]++
			if e.specLoad {
				// Exposure validates the load at its visibility
				// point. Validations are serialized on a single
				// port (half-latency pipelined), so back-to-back
				// speculative loads accumulate commit backpressure
				// — the dominant InvisiSpec-TSO cost.
				lat := m.specBuf.Expose(m.cycle, e.ea)
				stall := lat / 2
				if stall < 3 {
					// Already-exposed lines still pay the TSO
					// validation re-access at the L1 port.
					stall = 3
				}
				m.commitStallUntil = maxu(m.commitStallUntil, m.cycle) + stall
			}
		}
		if e.isStore {
			m.ctr[CtrCommitStores]++
			if len(m.sq) > 0 && m.sq[0].seq == e.seq {
				st := m.sq[0]
				m.sq = m.sq[1:]
				m.memory[st.addr] = st.value
				m.l1d.Access(m.cycle, st.addr, true)
			}
		}
		if e.isCtrl {
			m.ctr[CtrCommitBranches]++
			m.inFlightCtrl--
			m.trainPredictor(e)
		}
		if e.kind == isa.Syscall {
			m.kernelNoise()
		}

		if replay {
			if e.fault {
				m.ctr[CtrCommitFaults]++
			}
			if e.assistReplay {
				m.ctr[CtrLSQIgnoredResponses]++
			}
			if e.stlViolation {
				m.ctr[CtrIEWMemOrderViolation]++
				m.ctr[CtrLSQRescheduledLoads]++
			}
			m.replaySquash(e)
			m.robHead++
			return true
		}
		m.releaseCheckpoint(e)
		m.robHead++
	}
	if m.robHead == m.robTail && m.fetchIdx >= len(m.prog.Code) &&
		!m.redirecting && m.pendingReplays == 0 {
		m.done = true
	}
	return progress
}

// replaySquash discards everything younger than e, restores the checkpoint
// taken before e's transient write, applies the architecturally correct
// value, and redirects fetch past e.
func (m *Machine) replaySquash(e *robEntry) {
	pos := m.findROB(e.seq)
	m.pendingReplays-- // the owner itself
	m.squashYoungerThan(pos)
	if m.redirecting && m.pendingRedirect.seq > e.seq {
		m.redirecting = false
	}
	m.recomputeReplayGate()
	m.restoreCheckpoint(e.ckpt)
	m.releaseCheckpoint(e)
	if e.hasDest {
		m.specWrite(e.dest, e.destValue)
		m.regReady[e.dest] = m.cycle
	}
	m.fetchIdx = e.instIdx + 1
	penalty := m.cfg.SquashPenalty
	if e.fault {
		penalty += 30 // fault handler entry/exit
		m.kernelNoise()
	}
	m.fetchReadyAt = m.cycle + penalty
	m.ctr[CtrFetchSquashCycles] += penalty
	m.forceLineRefetch()
}

// kernelNoise models kernel handler activity: a few supervisor-space
// instruction and data accesses plus an ITLB flush — the syscall noise the
// paper notes pollutes attack samples.
func (m *Machine) kernelNoise() {
	base := isa.KernelBase + (m.seq%16)*0x1000
	for i := uint64(0); i < 4; i++ {
		m.l1i.Access(m.cycle+i, base+i*64, false)
	}
	m.l1d.Access(m.cycle+2, base+0x800, false)
	m.itlb.Flush()
}

// trainPredictor updates direction, BTB and RAS statistics for a committed
// control op.
func (m *Machine) trainPredictor(e *robEntry) {
	if e.hasPredDir {
		taken := e.actualNext != e.instIdx+1
		m.bp.UpdateDirection(e.predDir, taken)
	}
	switch e.kind {
	case isa.IndirectJump, isa.Jump, isa.Call:
		m.bp.UpdateTarget(PCOf(e.instIdx), e.actualNext, e.btbPred, e.btbHad)
	case isa.Ret:
		if e.rasUsed {
			m.bp.RecordRASOutcome(e.rasCorrect)
		}
	}
}
