package serve

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// The latency histogram is log-linear (HDR-style): each power-of-two octave
// splits into 2^latencySubBits equal-width sub-buckets, bounding the relative
// quantization error at ~1/2^latencySubBits (≈6%) everywhere on the scale.
// Pure power-of-two buckets were too coarse in the serving band — every
// sub-16ms latency collapsed into a handful of buckets, so p50, p95 and p99
// all reported the same upper bound. With 16 sub-buckets per octave the
// resolution at ~8 ms is ~0.5 ms.
const (
	latencySubBits    = 4
	latencySubBuckets = 1 << latencySubBits

	// latencyBuckets spans 1 ns to 2^35 ns (~34 s): buckets 0..15 count
	// single nanoseconds, then 31 octave groups of 16 sub-buckets each.
	latencyBuckets = 512
)

// Metrics aggregates the server's observability counters. Counter fields are
// atomics updated from connection readers and shard batchers; the histograms
// are mutex-guarded (one short critical section per scored batch).
type Metrics struct {
	start time.Time

	connsTotal   atomic.Uint64
	connsActive  atomic.Int64
	accepted     atomic.Uint64
	rejected     atomic.Uint64
	rejectedLoad atomic.Uint64 // RejectOverload subset of rejected
	scored       atomic.Uint64
	flagged      atomic.Uint64
	batches      atomic.Uint64
	writeErrors  atomic.Uint64

	// Resilience counters: session lifecycle, dedup-window hits, and the
	// slow-client / silent-client reaping paths.
	sessions       atomic.Uint64 // sessions created
	resumed        atomic.Uint64 // successful re-attaches to an existing session
	sessionsReaped atomic.Uint64 // orphaned sessions removed after SessionIdle
	dupes          atomic.Uint64 // replayed samples absorbed by the dedup window
	resent         atomic.Uint64 // stored verdicts re-delivered for replays
	shed           atomic.Uint64 // verdict frames dropped on a full outbound queue
	idleReaped     atomic.Uint64 // conns torn down by the idle read deadline

	mu        sync.Mutex
	latency   [latencyBuckets]uint64
	occupancy []uint64 // index = batch size; [0] unused
}

// newMetrics sizes the occupancy histogram for batches up to maxBatch.
func newMetrics(maxBatch int) *Metrics {
	return &Metrics{start: time.Now(), occupancy: make([]uint64, maxBatch+1)}
}

// observeBatch records one flushed batch: its occupancy and the
// enqueue→scored latency of each sample in it.
func (m *Metrics) observeBatch(size int, lats []time.Duration) {
	m.batches.Add(1)
	m.mu.Lock()
	if size < len(m.occupancy) {
		m.occupancy[size]++
	} else {
		m.occupancy[len(m.occupancy)-1]++
	}
	for _, d := range lats {
		m.latency[latencyBucket(d)]++
	}
	m.mu.Unlock()
}

// latencyBucket maps a duration to its log-linear bucket index: values below
// 2^latencySubBits land in exact single-nanosecond buckets, larger values in
// bucket group (exp - latencySubBits + 1) sub-bucket (top latencySubBits bits
// below the leading bit).
func latencyBucket(d time.Duration) int {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	if v < latencySubBuckets {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // position of the leading bit, ≥ latencySubBits
	sub := int(v>>(uint(exp)-latencySubBits)) - latencySubBuckets
	b := (exp-latencySubBits+1)*latencySubBuckets + sub
	if b >= latencyBuckets {
		return latencyBuckets - 1
	}
	return b
}

// bucketUpperNs returns the exclusive upper bound of latency bucket i in
// nanoseconds — the value percentile estimation reports.
func bucketUpperNs(i int) float64 {
	if i < latencySubBuckets {
		return float64(i + 1)
	}
	group := i / latencySubBuckets // ≥ 1
	sub := i % latencySubBuckets
	return float64(uint64(latencySubBuckets+sub+1) << uint(group-1))
}

// Snapshot is the JSON shape of the /metrics endpoint and of the final drain
// report.
type Snapshot struct {
	UptimeSec float64 `json:"uptime_sec"`
	// Shard is the fleet shard ID this snapshot came from (Config.ShardID;
	// 0 for standalone servers).
	Shard int `json:"shard"`
	// BundleHash, Epoch and Backend are generation provenance, stamped by
	// the server: the content hash of the bundle currently scoring (hex —
	// uint64s lose precision through JSON number round-trips), its
	// activation sequence number, and its compiled kernel.
	BundleHash   string  `json:"bundle_hash,omitempty"`
	Epoch        uint64  `json:"generation_epoch,omitempty"`
	Backend      string  `json:"backend,omitempty"`
	Conns        uint64  `json:"conns_total"`
	ConnsActive  int64   `json:"conns_active"`
	Accepted     uint64  `json:"frames_accepted"`
	Rejected     uint64  `json:"frames_rejected"`
	RejectedLoad uint64  `json:"frames_rejected_overload"`
	Scored       uint64  `json:"frames_scored"`
	Flagged      uint64  `json:"frames_flagged"`
	Batches      uint64  `json:"batches"`
	WriteErrors  uint64  `json:"write_errors"`
	Sessions     uint64  `json:"sessions"`
	Resumed      uint64  `json:"sessions_resumed"`
	SessReaped   uint64  `json:"sessions_reaped"`
	Dupes        uint64  `json:"frames_deduped"`
	Resent       uint64  `json:"verdicts_resent"`
	Shed         uint64  `json:"verdicts_shed"`
	IdleReaped   uint64  `json:"conns_idle_reaped"`
	ScoresPerSec float64 `json:"scores_per_sec"`
	// BatchOccupancy[i] counts flushed batches of exactly i samples (the
	// last entry also absorbs any larger batches).
	BatchOccupancy []uint64 `json:"batch_occupancy"`
	LatencyP50Ms   float64  `json:"latency_p50_ms"`
	LatencyP95Ms   float64  `json:"latency_p95_ms"`
	LatencyP99Ms   float64  `json:"latency_p99_ms"`
}

// Snapshot captures the current metrics.
func (m *Metrics) Snapshot() Snapshot {
	up := time.Since(m.start).Seconds()
	s := Snapshot{
		UptimeSec:    up,
		Conns:        m.connsTotal.Load(),
		ConnsActive:  m.connsActive.Load(),
		Accepted:     m.accepted.Load(),
		Rejected:     m.rejected.Load(),
		RejectedLoad: m.rejectedLoad.Load(),
		Scored:       m.scored.Load(),
		Flagged:      m.flagged.Load(),
		Batches:      m.batches.Load(),
		WriteErrors:  m.writeErrors.Load(),
		Sessions:     m.sessions.Load(),
		Resumed:      m.resumed.Load(),
		SessReaped:   m.sessionsReaped.Load(),
		Dupes:        m.dupes.Load(),
		Resent:       m.resent.Load(),
		Shed:         m.shed.Load(),
		IdleReaped:   m.idleReaped.Load(),
	}
	if up > 0 {
		s.ScoresPerSec = float64(s.Scored) / up
	}
	m.mu.Lock()
	s.BatchOccupancy = append([]uint64(nil), m.occupancy...)
	var hist [latencyBuckets]uint64
	copy(hist[:], m.latency[:])
	m.mu.Unlock()
	s.LatencyP50Ms = percentileMs(hist, 0.50)
	s.LatencyP95Ms = percentileMs(hist, 0.95)
	s.LatencyP99Ms = percentileMs(hist, 0.99)
	return s
}

// percentileMs estimates the p-quantile from the bucketed latency histogram,
// reporting each bucket at its upper bound (a conservative estimate).
func percentileMs(hist [latencyBuckets]uint64, p float64) float64 {
	var total uint64
	for _, c := range hist {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(p * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, c := range hist {
		seen += c
		if seen > rank {
			return bucketUpperNs(i) / 1e6
		}
	}
	return bucketUpperNs(latencyBuckets-1) / 1e6
}

// ConnStats is the per-connection summary carried by FrameStats at close.
type ConnStats struct {
	Accepted uint64 `json:"accepted"`
	Rejected uint64 `json:"rejected"`
	Scored   uint64 `json:"scored"`
	Flagged  uint64 `json:"flagged"`
	// Shard, BundleHash and Epoch are fleet provenance: which shard served
	// this connection, and the content hash (hex) plus activation epoch of
	// the generation active when it closed — so a coordinator merging stats
	// frames from many shards can tell which shard-generation pair produced
	// the last verdicts instead of seeing anonymous per-process totals.
	Shard      int    `json:"shard"`
	BundleHash string `json:"bundle_hash,omitempty"`
	Epoch      uint64 `json:"generation_epoch,omitempty"`
	// Session fields are present only for session-backed connections: the
	// session id and its lifetime totals across every conn that carried it,
	// plus the dedup/resend/shed traffic the resilience layer absorbed.
	Session         uint64 `json:"session,omitempty"`
	SessionAccepted uint64 `json:"session_accepted,omitempty"`
	SessionScored   uint64 `json:"session_scored,omitempty"`
	SessionFlagged  uint64 `json:"session_flagged,omitempty"`
	Dupes           uint64 `json:"dupes,omitempty"`
	Resent          uint64 `json:"resent,omitempty"`
	Shed            uint64 `json:"shed,omitempty"`
}
