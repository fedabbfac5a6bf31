// Package dram models main memory at the granularity microarchitectural
// memory attacks require: banks with open-row buffers (the DRAMA timing
// channel), per-row activation counting inside refresh windows with
// bit-flip thresholds (Rowhammer), a Target Row Refresh mitigation that
// many-sided hammering can overwhelm (TRRespass), and a small write queue
// that services reads (the `bytesReadWrQ` HPC the paper highlights).
//
// The model plays the role of Ramulator plus the memory-corruption module
// the paper added to gem5.
package dram

// Config sizes the DRAM model.
type Config struct {
	Banks        int
	RowBytes     int    // bytes per row (row-buffer size)
	TRCD         uint64 // activate-to-access, cycles
	TCAS         uint64 // column access, cycles
	TRP          uint64 // precharge, cycles
	RefreshEvery uint64 // refresh window length, cycles
	// FlipThreshold is the activation count within one refresh window
	// beyond which a neighbouring row suffers bit flips.
	FlipThreshold uint64
	// TRRTrackers is the number of aggressor rows the Target Row Refresh
	// logic can track per bank (0 disables TRR). Hammering more distinct
	// rows than this defeats the mitigation (the TRRespass observation).
	TRRTrackers int
	// WriteQueue is the number of recent store lines a read can be
	// serviced from without a bank access.
	WriteQueue int
}

// DefaultConfig returns a DDR-like configuration: 8 banks, 8KB rows, and
// classical timings scaled to the core's 2GHz clock.
func DefaultConfig() Config {
	return Config{
		Banks:         8,
		RowBytes:      8 << 10,
		TRCD:          24,
		TCAS:          24,
		TRP:           24,
		RefreshEvery:  2_000_000, // ~1ms at 2GHz, scaled down for simulation
		FlipThreshold: 50_000,
		TRRTrackers:   4,
		WriteQueue:    8,
	}
}

// Stats counts DRAM events.
type Stats struct {
	Reads            uint64
	Writes           uint64
	Activates        uint64
	RowHits          uint64 // row-buffer hits
	RowConflicts     uint64 // row-buffer conflicts (precharge + activate)
	Refreshes        uint64 // refresh windows elapsed
	TRRRefreshes     uint64 // neighbour refreshes issued by TRR
	BitFlips         uint64 // total victim-row bit flips
	BytesRead        uint64
	BytesWritten     uint64
	BytesReadWrQ     uint64 // read bytes serviced by the write queue
	SelfRefreshTicks uint64 // idle self-refresh energy proxy
}

type bank struct {
	openRow   int64 // -1 when precharged
	actCounts map[int64]uint64
	trrRows   []int64 // aggressors TRR is tracking
}

// Flip records one Rowhammer bit flip.
type Flip struct {
	Row  int64
	Bank int
	Bit  uint // bit index within the row flipped
}

// DRAM is the memory model. It satisfies cache.Backend.
type DRAM struct {
	cfg       Config
	banks     []bank
	lastEpoch uint64
	lastNow   uint64
	writeQ    []uint64 // recent store line addresses, newest last
	flips     []Flip
	flipped   map[uint64]struct{} // row keys already flipped this window

	Stats Stats
}

// New creates a DRAM model.
func New(cfg Config) *DRAM {
	d := &DRAM{cfg: cfg, banks: make([]bank, cfg.Banks), flipped: make(map[uint64]struct{})}
	for i := range d.banks {
		d.banks[i].openRow = -1
		d.banks[i].actCounts = make(map[int64]uint64)
	}
	return d
}

// mapAddr splits an address into bank and row.
func (d *DRAM) mapAddr(addr uint64) (bankIdx int, row int64) {
	line := addr / 64
	bankIdx = int(line) % d.cfg.Banks
	row = int64(addr / uint64(d.cfg.RowBytes) / uint64(d.cfg.Banks))
	return
}

// BankRow exposes the address mapping (attack generators build row-conflict
// pairs and hammer patterns from it).
func (d *DRAM) BankRow(addr uint64) (bank int, row int64) { return d.mapAddr(addr) }

// RowBytes returns the row-buffer size.
func (d *DRAM) RowBytes() int { return d.cfg.RowBytes }

// Banks returns the bank count.
func (d *DRAM) Banks() int { return d.cfg.Banks }

// refreshTick advances refresh windows based on the current cycle.
func (d *DRAM) refreshTick(now uint64) {
	if now > d.lastNow {
		// Idle gaps accumulate self-refresh "energy".
		d.Stats.SelfRefreshTicks += (now - d.lastNow) / 1024
		d.lastNow = now
	}
	epoch := now / d.cfg.RefreshEvery
	if epoch != d.lastEpoch {
		d.Stats.Refreshes += epoch - d.lastEpoch
		d.lastEpoch = epoch
		for i := range d.banks {
			clear(d.banks[i].actCounts)
			d.banks[i].trrRows = d.banks[i].trrRows[:0]
		}
		clear(d.flipped)
	}
}

// Access reads or writes the line containing addr at cycle now, returning
// the latency. It satisfies cache.Backend.
func (d *DRAM) Access(now uint64, addr uint64, write bool) uint64 {
	d.refreshTick(now)
	if write {
		d.Stats.Writes++
		d.Stats.BytesWritten += 64
		d.pushWriteQ(addr &^ 63)
	} else {
		d.Stats.Reads++
		d.Stats.BytesRead += 64
		if d.inWriteQ(addr &^ 63) {
			// Read serviced by the write queue: fast path, no bank access.
			d.Stats.BytesReadWrQ += 64
			return d.cfg.TCAS / 2
		}
	}

	bankIdx, row := d.mapAddr(addr)
	b := &d.banks[bankIdx]
	switch {
	case b.openRow == row:
		d.Stats.RowHits++
		return d.cfg.TCAS
	case b.openRow == -1:
		d.activate(b, bankIdx, row)
		return d.cfg.TRCD + d.cfg.TCAS
	default:
		d.Stats.RowConflicts++
		d.activate(b, bankIdx, row)
		return d.cfg.TRP + d.cfg.TRCD + d.cfg.TCAS
	}
}

func (d *DRAM) activate(b *bank, bankIdx int, row int64) {
	b.openRow = row
	b.actCounts[row]++
	d.Stats.Activates++
	d.maybeTRR(b, row)
	d.maybeFlip(b, bankIdx, row)
}

// maybeTRR models Target Row Refresh: track the most frequently activated
// rows; when a tracked row's count crosses half the flip threshold, refresh
// its neighbours (zeroing their disturbance). With more concurrent
// aggressors than trackers, untracked rows escape mitigation.
func (d *DRAM) maybeTRR(b *bank, row int64) {
	if d.cfg.TRRTrackers == 0 {
		return
	}
	tracked := false
	for _, r := range b.trrRows {
		if r == row {
			tracked = true
			break
		}
	}
	if !tracked {
		if len(b.trrRows) < d.cfg.TRRTrackers {
			b.trrRows = append(b.trrRows, row) //evaxlint:ignore hotpath bounded by TRRTrackers
			tracked = true
		}
	}
	if tracked && b.actCounts[row] >= d.cfg.FlipThreshold/2 && b.actCounts[row]%(d.cfg.FlipThreshold/2) == 0 {
		// Refresh neighbours: their accumulated disturbance is cleared.
		delete(b.actCounts, row-1)
		delete(b.actCounts, row+1)
		d.Stats.TRRRefreshes++
		// Neighbour refresh also resets the *disturbance seen by*
		// neighbours from this aggressor; model by halving its count.
		b.actCounts[row] /= 2
	}
}

// maybeFlip checks whether row's activation count has crossed the flip
// threshold and, if so, flips a bit in each physical neighbour.
func (d *DRAM) maybeFlip(b *bank, bankIdx int, row int64) {
	if b.actCounts[row] < d.cfg.FlipThreshold {
		return
	}
	for _, victim := range [2]int64{row - 1, row + 1} {
		if victim < 0 {
			continue
		}
		key := uint64(bankIdx)<<40 | uint64(victim)
		if _, done := d.flipped[key]; done {
			continue
		}
		d.flipped[key] = struct{}{}
		// Deterministic bit position derived from the victim row.
		bit := uint(uint64(victim*2654435761) % uint64(d.cfg.RowBytes*8))
		d.flips = append(d.flips, Flip{Row: victim, Bank: bankIdx, Bit: bit}) //evaxlint:ignore hotpath one entry per victim row, ever (the flipped set dedups)
		d.Stats.BitFlips++
	}
}

func (d *DRAM) pushWriteQ(lineAddr uint64) {
	q := d.writeQ
	for i, a := range q {
		if a == lineAddr {
			// Refresh position to newest.
			copy(q[i:], q[i+1:])
			q[len(q)-1] = lineAddr
			return
		}
	}
	if len(q) >= d.cfg.WriteQueue {
		// Drop the oldest by shifting, so the queue stays at the front
		// of its storage and never reallocates.
		q = q[:copy(q, q[1:])]
	}
	d.writeQ = append(q, lineAddr) //evaxlint:ignore hotpath the queue stays at the front of its storage, so this grows only to WriteQueue
}

func (d *DRAM) inWriteQ(lineAddr uint64) bool {
	for _, a := range d.writeQ {
		if a == lineAddr {
			return true
		}
	}
	return false
}

// Flips returns the bit flips induced so far.
func (d *DRAM) Flips() []Flip { return d.flips }

// ActivationCount reports activations of the row containing addr in the
// current refresh window.
func (d *DRAM) ActivationCount(addr uint64) uint64 {
	bankIdx, row := d.mapAddr(addr)
	return d.banks[bankIdx].actCounts[row]
}

// BytesPerActivate returns the paper's `bytesPerActivate` HPC: mean bytes
// moved per row activation (low values indicate hammering).
func (d *DRAM) BytesPerActivate() float64 {
	if d.Stats.Activates == 0 {
		return 0
	}
	return float64(d.Stats.BytesRead+d.Stats.BytesWritten) / float64(d.Stats.Activates)
}
