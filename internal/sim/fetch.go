package sim

import "evax/internal/isa"

// fetchStage fetches, decodes, renames and dispatches up to FetchWidth
// micro-ops along the predicted path, executing them functionally and
// computing their timing.
func (m *Machine) fetchStage() bool {
	if m.quiescing {
		m.ctr[CtrFetchQuiesceCycles]++
		m.ctr[CtrFetchPendingQuiesceStallCycles]++
		if m.ROBOccupancy() == 0 {
			m.quiescing = false
			m.fetchReadyAt = m.cycle + 1
		}
		return false
	}
	if m.cycle < m.fetchReadyAt {
		m.ctr[CtrFetchStallCycles]++
		return false
	}
	progress := false
	m.ctr[CtrFetchCycles]++
	for slot := 0; slot < m.cfg.FetchWidth; slot++ {
		if m.fetchIdx < 0 || m.fetchIdx >= len(m.prog.Code) {
			break // end of path; resolve/replay/done logic redirects
		}
		if m.ROBOccupancy() >= m.cfg.ROBEntries {
			m.ctr[CtrROBFullStalls]++
			break
		}
		m.drainIQ()
		if m.iq.len() >= m.cfg.IQEntries {
			m.ctr[CtrIQFullStalls]++
			m.ctr[CtrDecodeBlockedCycles]++
			break
		}
		in := &m.prog.Code[m.fetchIdx]
		if in.Kind == isa.Load && m.lqCount >= m.cfg.LQEntries {
			m.ctr[CtrLSQBlockedLoads]++
			break
		}
		if in.Kind == isa.Store && len(m.sq) >= m.cfg.SQEntries {
			m.ctr[CtrLSQBlockedLoads]++
			break
		}
		if instHasDest(in) && m.inFlightDests >= m.cfg.PhysIntRegs-isa.NumRegs {
			m.ctr[CtrRenameFullRegStalls]++
			break
		}
		if !m.fetchLineReady() {
			break
		}
		next, serial := m.dispatch(in, m.fetchIdx)
		progress = true
		m.fetchIdx = next
		if serial {
			break
		}
	}
	return progress
}

// drainIQ retires issue-queue occupancy entries whose execution has begun.
func (m *Machine) drainIQ() {
	m.ctr[CtrIQInstsIssued] += m.iq.drain(m.cycle)
}

// fetchLineReady charges I-cache/ITLB latency when fetch crosses into a new
// cache line; it returns false if fetch must stall this cycle.
func (m *Machine) fetchLineReady() bool {
	pc := PCOf(m.fetchIdx)
	line := pc &^ 63
	if line == m.lastFetchLine {
		return true
	}
	m.lastFetchLine = line
	tr := m.itlb.Translate(pc, false)
	lat := tr.Latency + m.l1i.Access(m.cycle, pc, false)
	if lat > 2 {
		m.fetchReadyAt = m.cycle + lat - 2
		m.ctr[CtrFetchIcacheStallCycles] += lat - 2
		return false
	}
	return true
}

func instHasDest(in *isa.Inst) bool {
	switch in.Kind {
	case isa.IntAlu, isa.IntMult, isa.IntDiv, isa.FloatAlu, isa.Load,
		isa.RdTSC, isa.RdRand:
		return in.Dest != isa.R0
	}
	return false
}

func maxu(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// srcReady returns the cycle at which all the given registers are available.
func (m *Machine) srcReady(regs ...isa.Reg) uint64 {
	var t uint64
	for _, r := range regs {
		if r != isa.R0 && m.regReady[r] > t {
			t = m.regReady[r]
		}
	}
	return t
}

// acquire reserves the earliest-free unit of a class. busy is how long the
// unit stays occupied (1 for pipelined units, the full latency for
// unpipelined ones).
func (m *Machine) acquire(free []uint64, start, busy uint64) uint64 {
	best := 0
	for i := 1; i < len(free); i++ {
		if free[i] < free[best] {
			best = i
		}
	}
	if free[best] > start {
		m.ctr[CtrIQConflicts]++
		start = free[best]
	}
	free[best] = start + busy
	return start
}

// dispatch functionally executes one micro-op, computes its timing, and
// appends it to the ROB. It returns the next fetch index (following the
// *predicted* path) and whether fetch must stop this cycle (serializing op).
func (m *Machine) dispatch(in *isa.Inst, idx int) (int, bool) {
	m.seq++
	wrongPath := m.redirecting
	// The entry is built in its ROB slot (past robTail until the end of
	// dispatch, so it is not yet in flight).
	e := m.robAt(m.robTail)
	*e = robEntry{}
	e.seq = m.seq
	e.instIdx = idx
	e.kind = in.Kind
	e.phase = in.Phase
	e.wrongPath = wrongPath
	e.dest = in.Dest
	m.phaseDispatched[in.Phase]++
	m.ctr[CtrFetchInsts]++
	m.ctr[CtrDecodeInsts]++
	m.ctr[CtrRenameRenamedInsts]++
	m.ctr[CtrIQInstsAdded]++
	if wrongPath || m.pendingReplays > 0 {
		m.ctr[CtrSpecInstsAdded]++
	}

	// Base issue time: front-end depth plus serialization barriers.
	start := m.cycle + m.cfg.FetchToDispatch
	if m.serializeBarrier > start {
		m.ctr[CtrFenceStallCycles] += m.serializeBarrier - start
		start = m.serializeBarrier
	}
	if m.policy == PolicyFenceAfterBranch && m.branchFence > start {
		m.ctr[CtrFenceStallCycles] += m.branchFence - start
		start = m.branchFence
	}

	next := idx + 1
	serial := false

	switch in.Kind {
	case isa.Nop:
		e.doneAt = start + 1

	case isa.IntAlu, isa.IntMult, isa.IntDiv, isa.FloatAlu:
		start = maxu(start, m.srcReady(in.Src1, in.Src2))
		var lat uint64
		switch in.Kind {
		case isa.IntAlu:
			start = m.acquire(m.aluFree, start, 1)
			lat = m.cfg.IntALULat
		case isa.IntMult:
			start = m.acquire(m.multFree, start, 1)
			lat = m.cfg.IntMultLat
		case isa.IntDiv:
			start = m.acquire(m.divFree, start, m.cfg.IntDivLat)
			lat = m.cfg.IntDivLat
		case isa.FloatAlu:
			start = m.acquire(m.fpFree, start, 1)
			lat = m.cfg.FPLat
		}
		e.execStart = start
		e.doneAt = start + lat
		v := isa.AluResult(in.Alu, m.specRead(in.Src1), m.specRead(in.Src2), in.Imm)
		m.writeDest(e, in.Dest, v)

	case isa.Load:
		next, serial = m.dispatchLoad(in, idx, e, start)

	case isa.Store:
		ea := in.EA(m.specRead)
		start = maxu(start, m.srcReady(in.Base, in.Index))
		if m.memBarrier > start {
			m.ctr[CtrFenceStallCycles] += m.memBarrier - start
			start = m.memBarrier
		}
		start = m.acquire(m.storeFree, start, 1)
		dataReady := m.srcReady(in.Src1)
		e.execStart = start
		e.doneAt = maxu(start, dataReady) + 1
		e.isStore = true
		e.ea = ea &^ 7
		if ea < isa.KernelBase {
			if len(m.sq) == cap(m.sq) {
				m.sq = m.sqBuf[:copy(m.sqBuf, m.sq)]
			}
			n := len(m.sq)
			m.sq = m.sq[:n+1]
			m.sq[n] = sqEntry{seq: e.seq, addr: ea &^ 7,
				value: m.specRead(in.Src1), addrAt: start, dataAt: e.doneAt}
		}

	case isa.CLFlush:
		ea := in.EA(m.specRead)
		start = maxu(start, m.srcReady(in.Base, in.Index))
		start = m.acquire(m.loadFree, start, 1)
		e.execStart = start
		e.ea = ea
		if m.willExec(start, wrongPath) {
			e.doneAt = start + m.l1d.Flush(start, ea)
			e.didCacheAccess = true
		} else {
			e.doneAt = start + 3
		}

	case isa.Prefetch:
		ea := in.EA(m.specRead)
		start = maxu(start, m.srcReady(in.Base, in.Index))
		e.execStart = start
		e.ea = ea
		if m.willExec(start, wrongPath) {
			m.l1d.Prefetch(start, ea)
			e.didCacheAccess = true
		}
		e.doneAt = start + 1

	case isa.RdTSC:
		e.execStart = start
		e.doneAt = start + 1
		m.writeDest(e, in.Dest, start)

	case isa.RdRand:
		orig := start
		start = maxu(start, m.rngFree)
		if start > orig {
			m.ctr[CtrRNGContentionCycles] += start - orig
		}
		m.rngFree = start + m.cfg.RdRandLat
		e.execStart = start
		e.doneAt = start + m.cfg.RdRandLat
		m.ctr[CtrRNGReads]++
		m.rng ^= m.rng << 13
		m.rng ^= m.rng >> 7
		m.rng ^= m.rng << 17
		if m.rng == 0 {
			m.rng = 0x9E3779B97F4A7C15
		}
		m.writeDest(e, in.Dest, m.rng)

	case isa.Fence:
		start = maxu(start, m.maxDoneMem)
		e.execStart = start
		e.doneAt = start + 1
		m.memBarrier = maxu(m.memBarrier, e.doneAt)

	case isa.LFence:
		start = maxu(start, m.maxDoneAll)
		e.execStart = start
		e.doneAt = start + 1
		m.serializeBarrier = maxu(m.serializeBarrier, e.doneAt)

	case isa.Syscall, isa.Serialize:
		start = maxu(start, m.maxDoneAll)
		e.execStart = start
		lat := uint64(10)
		if in.Kind == isa.Syscall {
			lat = m.cfg.SyscallLat
			m.ctr[CtrKernelSyscalls]++
		}
		e.doneAt = start + lat
		m.serializeBarrier = maxu(m.serializeBarrier, e.doneAt)
		m.ctr[CtrSerializeDrains]++
		m.ctr[CtrRenameSerializingInsts]++
		serial = true

	case isa.Quiesce:
		e.execStart = start
		e.doneAt = start + 1
		m.quiescing = true
		serial = true

	case isa.Branch, isa.Jump, isa.IndirectJump, isa.Call, isa.Ret:
		next = m.dispatchCtrl(in, idx, e, start)
	}

	m.maxDoneAll = maxu(m.maxDoneAll, e.doneAt)
	if in.Kind.IsMem() {
		m.maxDoneMem = maxu(m.maxDoneMem, e.doneAt)
	}
	if e.isCtrl {
		m.maxDoneCtrl = maxu(m.maxDoneCtrl, e.doneAt)
		if m.policy == PolicyFenceAfterBranch {
			// The injected fence after this branch serializes all
			// younger work against everything currently in flight.
			m.branchFence = maxu(m.branchFence, maxu(m.maxDoneAll, e.doneAt))
		}
	}
	m.ctr[CtrIEWExecutedInsts]++
	if e.execStart > m.cycle {
		m.iq.push(e.execStart)
	}
	m.robTail++

	if e.mispredict && !wrongPath {
		m.pendingRedirect = redirect{
			seq:        e.seq,
			doneAt:     e.doneAt,
			actualNext: e.actualNext,
		}
		m.redirecting = true
	}
	return next, serial
}

// willExec reports whether a micro-op starting at cycle `start` really
// executes before any pending squash kills it — the gate that decides
// whether transient work touches the caches.
func (m *Machine) willExec(start uint64, wrongPath bool) bool {
	if wrongPath && m.redirecting && start >= m.pendingRedirect.doneAt {
		return false
	}
	if m.pendingReplays > 0 && start >= m.replayGate {
		return false
	}
	return true
}

// writeDest records the destination value both speculatively and for commit.
func (m *Machine) writeDest(e *robEntry, dest isa.Reg, v uint64) {
	if dest == isa.R0 {
		return
	}
	e.hasDest = true
	e.destValue = v
	m.specWrite(dest, v)
	m.regReady[dest] = e.doneAt
	m.inFlightDests++
}

// writeDestTransient installs a transient value speculatively while
// recording a different architectural result (replay loads).
func (m *Machine) writeDestTransient(e *robEntry, dest isa.Reg, transient, architectural uint64) {
	if dest == isa.R0 {
		return
	}
	e.hasDest = true
	e.destValue = architectural
	m.specWrite(dest, transient)
	m.regReady[dest] = e.doneAt
	m.inFlightDests++
}
