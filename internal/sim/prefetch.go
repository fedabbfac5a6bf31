package sim

// stridePrefetcher is a classic PC-indexed stride prefetcher (disabled by
// default; Config.Prefetcher enables it). Each load PC tracks its last
// address and stride; two consecutive accesses with the same stride arm the
// entry, after which the prefetcher issues Degree line prefetches ahead of
// the demand stream into the L1D.
//
// Prefetching matters to this reproduction for two reasons: it is a real
// component of the simulated core whose counters
// (dcache.Prefetches/PrefetchFills) feed the detector, and it perturbs the
// cache-timing channels the attacks rely on — the ablation benchmark
// measures both.
type stridePrefetcher struct {
	entries []pfEntry
	mask    uint64
	degree  int
	out     []uint64 // observe's result buffer, degree long

	// Issued counts prefetches sent; Useful is maintained by the cache's
	// PrefetchFills (fills that were not already present).
	Issued uint64
}

type pfEntry struct {
	pc     uint64
	last   uint64
	stride int64
	armed  bool
}

// PrefetchConfig sizes the stride prefetcher.
type PrefetchConfig struct {
	// Enabled turns the prefetcher on.
	Enabled bool
	// TableSize is the number of PC-indexed tracking entries (power of 2).
	TableSize int
	// Degree is how many lines ahead each trigger prefetches.
	Degree int
}

// DefaultPrefetchConfig returns a 64-entry, degree-2 stride prefetcher
// (disabled; Table II's core does not state one and the experiment
// calibration assumes none).
func DefaultPrefetchConfig() PrefetchConfig {
	return PrefetchConfig{Enabled: false, TableSize: 64, Degree: 2}
}

func newStridePrefetcher(cfg PrefetchConfig) *stridePrefetcher {
	size := cfg.TableSize
	if size&(size-1) != 0 || size == 0 {
		size = 64
	}
	deg := cfg.Degree
	if deg < 1 {
		deg = 1
	}
	return &stridePrefetcher{
		entries: make([]pfEntry, size),
		mask:    uint64(size - 1),
		degree:  deg,
		out:     make([]uint64, deg),
	}
}

// observe records a demand load at pc touching addr and returns the
// addresses to prefetch (nil when the entry is not armed). The result is
// owned by the prefetcher and overwritten by the next trigger.
func (p *stridePrefetcher) observe(pc, addr uint64) []uint64 {
	e := &p.entries[pc&p.mask]
	if e.pc != pc {
		*e = pfEntry{pc: pc, last: addr}
		return nil
	}
	stride := int64(addr) - int64(e.last)
	if stride == 0 {
		return nil
	}
	trigger := stride == e.stride // second sighting of the same stride
	e.armed = trigger
	e.stride = stride
	e.last = addr
	if !trigger {
		return nil
	}
	n := 0
	next := int64(addr)
	for ; n < p.degree; n++ {
		next += stride
		if next <= 0 {
			break
		}
		p.out[n] = uint64(next)
	}
	p.Issued += uint64(n)
	return p.out[:n]
}
