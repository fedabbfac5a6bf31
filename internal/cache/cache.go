// Package cache models the core's cache hierarchy: set-associative
// write-back caches with LRU replacement, MSHR-based miss tracking, write
// buffers, CLFLUSH support, and the InvisiSpec speculative buffer used by
// the gated defense.
//
// Timing is cycle-approximate: Access takes the current cycle and returns
// the latency of the request. Outstanding misses are tracked per line with a
// completion cycle, so a second access to an in-flight line coalesces onto
// the MSHR ("mshr hit") and sees only the residual latency — the
// memory-level-parallelism behaviour cache attacks and InvisiSpec both
// depend on.
package cache

// Backend is a lower level of the memory hierarchy: the next cache or DRAM.
type Backend interface {
	// Access performs a read or write-back of the line containing addr at
	// cycle now and returns the access latency in cycles.
	Access(now uint64, addr uint64, write bool) uint64
}

// FixedLatency is a Backend with a constant access time (used for tests and
// as an L2 backstop when DRAM detail is not needed).
type FixedLatency uint64

// Access returns the fixed latency.
func (f FixedLatency) Access(uint64, uint64, bool) uint64 { return uint64(f) }

// Config sizes one cache level.
type Config struct {
	Name        string
	Size        int    // bytes
	LineSize    int    // bytes
	Assoc       int    // ways
	TagLatency  uint64 // cycles to check tags
	DataLatency uint64 // cycles to deliver data on a hit
	RespLatency uint64 // added to miss fills
	MSHRs       int    // outstanding line misses
	WriteBufs   int    // write-back buffers
}

// L1D/L1I/L2 defaults per the paper's Table II.

// L1DConfig returns the 64KB, 8-way, 64B-line L1 data cache configuration.
func L1DConfig() Config {
	return Config{Name: "dcache", Size: 64 << 10, LineSize: 64, Assoc: 8,
		TagLatency: 1, DataLatency: 2, RespLatency: 2, MSHRs: 4, WriteBufs: 8}
}

// L1IConfig returns the 32KB, 4-way L1 instruction cache configuration.
func L1IConfig() Config {
	return Config{Name: "icache", Size: 32 << 10, LineSize: 64, Assoc: 4,
		TagLatency: 1, DataLatency: 1, RespLatency: 2, MSHRs: 4, WriteBufs: 4}
}

// L2Config returns the 2MB, 8-way shared L2 configuration
// (tagLatency=20, dataLatency=20, responseLatency=20, mshrs=20, writeBuffers=8).
func L2Config() Config {
	return Config{Name: "l2", Size: 2 << 20, LineSize: 64, Assoc: 8,
		TagLatency: 20, DataLatency: 20, RespLatency: 20, MSHRs: 20, WriteBufs: 8}
}

// Stats counts cache events for the HPC fabric.
type Stats struct {
	ReadHits         uint64
	ReadMisses       uint64
	WriteHits        uint64
	WriteMisses      uint64
	MSHRHits         uint64 // accesses coalesced onto an in-flight miss
	MSHRFullStalls   uint64 // accesses delayed because all MSHRs were busy
	MSHRMissLatency  uint64 // accumulated read-miss latency (cycles)
	CleanEvicts      uint64
	DirtyEvicts      uint64 // writebacks due to replacement
	Flushes          uint64 // lines invalidated by CLFLUSH
	FlushMisses      uint64 // CLFLUSH of a line not present
	Prefetches       uint64
	PrefetchFills    uint64 // prefetches that actually brought a line in
	WriteBufFull     uint64 // writebacks stalled on a full write buffer
	SpecFills        uint64 // InvisiSpec: lines placed in the spec buffer
	SpecExposes      uint64 // InvisiSpec: spec-buffer lines made visible
	SpecSquashed     uint64 // InvisiSpec: spec-buffer lines discarded on squash
	SpecBufHits      uint64 // speculative loads served from the spec buffer
	ReadSharedReqs   uint64 // bus transactions (membus.trans_dist::ReadSharedReq)
	WritebackReqs    uint64
	InvalidatesRecvd uint64
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // larger = more recently used
}

type mshr struct {
	addr  uint64 // line address
	ready uint64 // cycle at which the fill completes
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg      Config
	sets     [][]line
	numSets  int
	lineMask uint64
	next     Backend
	mshrs    []mshr
	wbReady  []uint64 // write-buffer drain completion times
	lruClock uint64

	Stats Stats
}

// New creates a cache level backed by next.
func New(cfg Config, next Backend) *Cache {
	numSets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	sets := make([][]line, numSets)
	backing := make([]line, numSets*cfg.Assoc)
	for i := range sets {
		sets[i] = backing[i*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	return &Cache{
		cfg:      cfg,
		sets:     sets,
		numSets:  numSets,
		lineMask: ^uint64(cfg.LineSize - 1),
		next:     next,
		mshrs:    make([]mshr, 0, cfg.MSHRs),
		wbReady:  make([]uint64, 0, cfg.WriteBufs),
	}
}

// LineAddr returns the line-aligned address.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr & c.lineMask }

func (c *Cache) setIdx(lineAddr uint64) int {
	return int(lineAddr/uint64(c.cfg.LineSize)) % c.numSets
}

func (c *Cache) find(lineAddr uint64) *line {
	set := c.sets[c.setIdx(lineAddr)]
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			return &set[i]
		}
	}
	return nil
}

// Present reports whether the line containing addr is cached (no state
// change; used by CLFLUSH timing and by tests).
func (c *Cache) Present(addr uint64) bool { return c.find(c.LineAddr(addr)) != nil }

// reapMSHRs drops completed entries.
func (c *Cache) reapMSHRs(now uint64) {
	kept := c.mshrs[:0]
	for _, m := range c.mshrs {
		if m.ready > now {
			kept = append(kept, m) //evaxlint:ignore hotpath in-place filter, never longer than its source
		}
	}
	c.mshrs = kept
}

func (c *Cache) reapWriteBufs(now uint64) {
	kept := c.wbReady[:0]
	for _, r := range c.wbReady {
		if r > now {
			kept = append(kept, r) //evaxlint:ignore hotpath in-place filter, never longer than its source
		}
	}
	c.wbReady = kept
}

// victim selects the LRU way in the set containing lineAddr, evicting it if
// valid and returning any write-back latency added to the fill.
func (c *Cache) victim(now uint64, lineAddr uint64) (*line, uint64) {
	set := c.sets[c.setIdx(lineAddr)]
	v := &set[0]
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			v = &set[i]
			break
		}
		if set[i].lru < v.lru {
			v = &set[i]
		}
	}
	var extra uint64
	if v.valid {
		if v.dirty {
			c.Stats.DirtyEvicts++
			c.Stats.WritebackReqs++
			extra += c.writeback(now, v.tag)
		} else {
			c.Stats.CleanEvicts++
		}
	}
	return v, extra
}

// writeback sends a dirty line down, possibly stalling on the write buffer.
func (c *Cache) writeback(now uint64, lineAddr uint64) uint64 {
	c.reapWriteBufs(now)
	var stall uint64
	if len(c.wbReady) >= c.cfg.WriteBufs {
		// Stall until the oldest buffer drains.
		oldest := c.wbReady[0]
		for _, r := range c.wbReady {
			if r < oldest {
				oldest = r
			}
		}
		if oldest > now {
			stall = oldest - now
		}
		c.Stats.WriteBufFull++
	}
	lat := c.next.Access(now+stall, lineAddr, true)
	c.wbReady = append(c.wbReady, now+stall+lat) //evaxlint:ignore hotpath preallocated to WriteBufs; grows only past a full-buffer stall
	// The requester does not wait for the writeback beyond the stall.
	return stall
}

// Access performs a demand read (write=false) or write (write=true) of the
// word at addr, returning the latency in cycles.
func (c *Cache) Access(now uint64, addr uint64, write bool) uint64 {
	lineAddr := c.LineAddr(addr)
	c.lruClock++
	c.reapMSHRs(now)

	if l := c.find(lineAddr); l != nil {
		l.lru = c.lruClock
		if write {
			l.dirty = true
		}
		// A line whose fill is still in flight coalesces onto the MSHR
		// and waits out the residual latency.
		for _, m := range c.mshrs {
			if m.addr == lineAddr {
				c.Stats.MSHRHits++
				return c.cfg.TagLatency + (m.ready - now)
			}
		}
		if write {
			c.Stats.WriteHits++
		} else {
			c.Stats.ReadHits++
		}
		return c.cfg.TagLatency + c.cfg.DataLatency
	}

	if write {
		c.Stats.WriteMisses++
	} else {
		c.Stats.ReadMisses++
	}

	var stall uint64
	if len(c.mshrs) >= c.cfg.MSHRs {
		// All MSHRs busy: wait for the earliest completion.
		earliest := c.mshrs[0].ready
		for _, m := range c.mshrs {
			if m.ready < earliest {
				earliest = m.ready
			}
		}
		if earliest > now {
			stall = earliest - now
		}
		c.Stats.MSHRFullStalls++
		c.reapMSHRs(now + stall)
	}

	c.Stats.ReadSharedReqs++
	missLat := c.next.Access(now+stall+c.cfg.TagLatency, lineAddr, false)
	total := stall + c.cfg.TagLatency + missLat + c.cfg.RespLatency
	if !write {
		c.Stats.MSHRMissLatency += total
	}
	c.mshrs = append(c.mshrs, mshr{addr: lineAddr, ready: now + total}) //evaxlint:ignore hotpath preallocated to MSHRs; a full file is reaped first

	_, extra := c.fillVictim(now, lineAddr, write)
	return total + extra
}

func (c *Cache) fillVictim(now uint64, lineAddr uint64, write bool) (*line, uint64) {
	v, extra := c.victim(now, lineAddr)
	v.tag = lineAddr
	v.valid = true
	v.dirty = write
	v.lru = c.lruClock
	return v, extra
}

// ReadNoAllocate performs a read that does not change cache *contents* (the
// InvisiSpec "invisible load" path): no line is filled and LRU is untouched,
// but the miss still occupies an MSHR — invisible loads share the same miss
// infrastructure and memory-level-parallelism limits as ordinary ones.
func (c *Cache) ReadNoAllocate(now uint64, addr uint64) uint64 {
	lineAddr := c.LineAddr(addr)
	c.reapMSHRs(now)
	if c.find(lineAddr) != nil {
		for _, m := range c.mshrs {
			if m.addr == lineAddr {
				return c.cfg.TagLatency + (m.ready - now)
			}
		}
		return c.cfg.TagLatency + c.cfg.DataLatency
	}
	// Coalesce onto an in-flight miss.
	for _, m := range c.mshrs {
		if m.addr == lineAddr {
			c.Stats.MSHRHits++
			lat := c.cfg.TagLatency
			if m.ready > now {
				lat += m.ready - now
			}
			return lat
		}
	}
	var stall uint64
	if len(c.mshrs) >= c.cfg.MSHRs {
		earliest := c.mshrs[0].ready
		for _, m := range c.mshrs {
			if m.ready < earliest {
				earliest = m.ready
			}
		}
		if earliest > now {
			stall = earliest - now
		}
		c.Stats.MSHRFullStalls++
		c.reapMSHRs(now + stall)
	}
	var lower uint64
	switch n := c.next.(type) {
	case *Cache:
		lower = n.ReadNoAllocate(now+stall+c.cfg.TagLatency, addr)
	default:
		lower = c.next.Access(now+stall+c.cfg.TagLatency, addr, false)
	}
	total := stall + c.cfg.TagLatency + lower + c.cfg.RespLatency
	c.mshrs = append(c.mshrs, mshr{addr: lineAddr, ready: now + total}) //evaxlint:ignore hotpath preallocated to MSHRs; a full file is reaped first
	return total
}

// Flush invalidates the line containing addr at this level and below,
// writing back dirty data. It returns the flush latency: flushing a present
// line is slower than flushing an absent one — the timing difference
// Flush+Flush measures.
func (c *Cache) Flush(now uint64, addr uint64) uint64 {
	lineAddr := c.LineAddr(addr)
	lat := c.cfg.TagLatency
	if l := c.find(lineAddr); l != nil {
		c.Stats.Flushes++
		if l.dirty {
			lat += c.writeback(now, lineAddr) + c.cfg.DataLatency
			c.Stats.WritebackReqs++
		}
		l.valid = false
		lat += c.cfg.DataLatency // invalidation handshake
	} else {
		c.Stats.FlushMisses++
	}
	if n, ok := c.next.(*Cache); ok {
		lat += n.Flush(now, addr)
	}
	return lat
}

// Invalidate drops the line (coherence invalidation; no writeback latency
// charged to the requester).
func (c *Cache) Invalidate(addr uint64) {
	if l := c.find(c.LineAddr(addr)); l != nil {
		l.valid = false
		c.Stats.InvalidatesRecvd++
	}
}

// Prefetch warms the line containing addr; returns the latency charged to
// the prefetch unit (the requesting instruction does not block on it).
func (c *Cache) Prefetch(now uint64, addr uint64) uint64 {
	c.Stats.Prefetches++
	lineAddr := c.LineAddr(addr)
	if c.find(lineAddr) != nil {
		return c.cfg.TagLatency
	}
	c.Stats.PrefetchFills++
	return c.Access(now, addr, false)
}

// OccupiedWays returns how many ways of the set holding addr are valid
// (Prime+Probe observability in tests).
func (c *Cache) OccupiedWays(addr uint64) int {
	set := c.sets[c.setIdx(c.LineAddr(addr))]
	n := 0
	for i := range set {
		if set[i].valid {
			n++
		}
	}
	return n
}

// NumSets exposes the set count (used by attack generators to build
// eviction sets).
func (c *Cache) NumSets() int { return c.numSets }

// LineSize exposes the line size in bytes.
func (c *Cache) LineSize() int { return c.cfg.LineSize }

// Assoc exposes the associativity.
func (c *Cache) Assoc() int { return c.cfg.Assoc }

// MSHRsInFlight reports the number of outstanding misses (HPC sampling).
func (c *Cache) MSHRsInFlight(now uint64) int {
	c.reapMSHRs(now)
	return len(c.mshrs)
}
