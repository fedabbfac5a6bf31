package sim

import "evax/internal/isa"

// dispatchLoad handles the load micro-op: TLB translation, store-queue
// interaction (forwarding, speculative bypass, assist injection), kernel
// permission faults, and the cache access — routed through the InvisiSpec
// buffer when the active policy demands it.
func (m *Machine) dispatchLoad(in *isa.Inst, idx int, e *robEntry, start uint64) (int, bool) {
	ea := in.EA(m.specRead)
	start = maxu(start, m.srcReady(in.Base, in.Index))
	if m.memBarrier > start {
		m.ctr[CtrFenceStallCycles] += m.memBarrier - start
		start = m.memBarrier
	}
	if m.policy == PolicyFenceBeforeLoad && m.maxDoneAll+1 > start {
		m.ctr[CtrFenceStallCycles] += m.maxDoneAll + 1 - start
		start = m.maxDoneAll + 1
	}
	start = m.acquire(m.loadFree, start, 1)
	e.execStart = start
	e.isLoad = true
	e.ea = ea
	m.lqCount++

	kernel := in.Kernel || ea >= isa.KernelBase
	tr := m.dtlb.Translate(ea, false)
	lat := tr.Latency

	w := ea &^ 7
	var match *sqEntry
	for i := len(m.sq) - 1; i >= 0; i-- {
		if m.sq[i].addr == w {
			match = &m.sq[i]
			break
		}
	}
	speculative := m.maxDoneCtrl > start
	if speculative {
		m.ctr[CtrSpecLoadsExecuted]++
	}

	needsCache := true
	var transient, architectural uint64
	replay := false

	switch {
	case in.NoFwd:
		// Microcode-assist path (LVI/MDS modelling): the load
		// transiently receives stale data from a 4K-aliasing store
		// buffer entry — attacker-injected — then replays at commit.
		var inj uint64
		for i := len(m.sq) - 1; i >= 0; i-- {
			if m.sq[i].addr != w && (m.sq[i].addr&0xFFF) == (w&0xFFF) {
				inj = m.sq[i].value
				break
			}
		}
		e.assistReplay = true
		replay = true
		lat += 8 // assist invocation
		transient, architectural = inj, m.memRead(ea)

	case kernel:
		// Permission fault delivered at commit; the secret is
		// transiently forwarded (the Meltdown window).
		e.fault = true
		replay = true
		transient, architectural = m.memRead(ea), 0

	case match != nil && match.addrAt <= start:
		// The store's address is resolved: forward, waiting for the
		// data if it is still in flight.
		m.ctr[CtrLSQForwLoads]++
		if speculative {
			m.ctr[CtrLSQSpecLoadsHitWrQueue]++
		}
		if match.dataAt > start {
			lat += match.dataAt - start
		}
		lat++
		needsCache = false
		transient = match.value
		architectural = match.value

	case match != nil:
		// The newest matching store has not resolved: the load
		// speculatively bypasses it and reads stale memory
		// (Spectre-STL); the violation is caught at commit.
		e.stlViolation = true
		replay = true
		transient, architectural = m.memory[w], match.value

	default:
		v := m.memory[w]
		transient, architectural = v, v
	}

	if needsCache {
		if m.willExec(start, e.wrongPath) {
			specLd := false
			switch m.policy {
			case PolicyInvisiSpecSpectre:
				// Unsafe while an older branch is unresolved.
				specLd = speculative
			case PolicyInvisiSpecFuturistic:
				// Unsafe until the load reaches the ROB head.
				specLd = m.ROBOccupancy() > 0
			}
			if specLd {
				lat += m.specBuf.Load(start, ea)
				e.specLoad = true
			} else {
				lat += m.l1d.Access(start, ea, false)
				e.didCacheAccess = true
			}
		} else {
			lat += 3 // nominal; the op is squashed before executing
		}
	}

	// Demand-stream training of the stride prefetcher (squashed-path
	// loads train it too, as in real front ends).
	if m.pf != nil && needsCache && !kernel {
		for _, pa := range m.pf.observe(PCOf(idx), ea) {
			m.l1d.Prefetch(start+1, pa)
		}
	}

	e.doneAt = start + lat
	if replay {
		e.ckpt = m.takeCheckpoint()
		e.squashAtEst = maxu(e.doneAt, m.maxDoneAll) + 1
		if m.pendingReplays == 0 || e.squashAtEst < m.replayGate {
			m.replayGate = e.squashAtEst
		}
		m.pendingReplays++
		m.writeDestTransient(e, in.Dest, transient, architectural)
	} else {
		m.writeDest(e, in.Dest, transient)
	}
	return idx + 1, false
}

// dispatchCtrl handles control-flow micro-ops: prediction, functional
// resolution, and misprediction checkpointing. It returns the predicted
// next fetch index (fetch always follows the prediction; the squash
// machinery repairs wrong paths).
func (m *Machine) dispatchCtrl(in *isa.Inst, idx int, e *robEntry, start uint64) int {
	e.isCtrl = true
	m.inFlightCtrl++
	pc := PCOf(idx)
	var predNext, actualNext int

	switch in.Kind {
	case isa.Branch:
		d := m.bp.PredictDirection(pc)
		e.predDir = d
		e.hasPredDir = true
		start = maxu(start, m.srcReady(in.Src1, in.Src2))
		start = m.acquire(m.aluFree, start, 1)
		e.execStart = start
		e.doneAt = start + 1
		taken := in.Cond.Eval(m.specRead(in.Src1), m.specRead(in.Src2))
		actualNext, predNext = idx+1, idx+1
		if taken {
			actualNext = in.Target
		}
		if d.Taken {
			predNext = in.Target
		}

	case isa.Jump:
		e.execStart = start
		e.doneAt = start + 1
		predNext, actualNext = in.Target, in.Target

	case isa.Call:
		e.execStart = start
		e.doneAt = start + 1
		predNext, actualNext = in.Target, in.Target
		m.callStack = append(m.callStack, idx+1) //evaxlint:ignore hotpath grows only to the deepest call stack, then reuses its storage
		m.bp.PushRAS(idx + 1)

	case isa.Ret:
		e.execStart = start
		e.doneAt = start + 2
		p, ok := m.bp.PopRAS()
		e.rasUsed = ok
		if n := len(m.callStack); n > 0 {
			actualNext = m.callStack[n-1]
			m.callStack = m.callStack[:n-1]
		} else {
			actualNext = len(m.prog.Code) // ret on empty stack terminates
		}
		if ok {
			predNext = p
		} else {
			predNext = idx + 1
		}
		e.rasCorrect = ok && p == actualNext

	case isa.IndirectJump:
		start = maxu(start, m.srcReady(in.Src1))
		start = m.acquire(m.aluFree, start, 1)
		e.execStart = start
		e.doneAt = start + 1
		t, had := m.bp.PredictTarget(pc)
		e.btbPred, e.btbHad = t, had
		if had && t >= 0 && t <= len(m.prog.Code) {
			predNext = t
		} else {
			predNext = idx + 1
		}
		a := int(m.specRead(in.Src1))
		if a < 0 || a > len(m.prog.Code) {
			a = len(m.prog.Code)
		}
		actualNext = a
	}

	e.actualNext = actualNext
	if actualNext != predNext {
		e.mispredict = true
		e.ckpt = m.takeCheckpoint()
	}
	return predNext
}
