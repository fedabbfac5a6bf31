package fleet

import (
	"fmt"
	"time"

	"evax/internal/dataset"
	"evax/internal/engine"
	"evax/internal/runner"
	"evax/internal/serve"
)

// DefaultTenants is the tenant fan-out Replay uses when ReplayOptions leaves
// Tenants zero: enough concurrent streams to exercise routing at the shard
// counts the golden gate sweeps (1, 2, 4).
const DefaultTenants = 8

// ReplayOptions parameterizes a fleet replay.
type ReplayOptions struct {
	// Tenants is how many concurrent client streams the corpus is
	// partitioned across (<= 0 means DefaultTenants, capped at the row
	// count). Rows are dealt round-robin: row i belongs to tenant
	// i % Tenants, preserving corpus order within each tenant.
	Tenants int
	// Seed varies the tenant routing keys (and nothing else): a different
	// seed lands tenants on different shards, yet the merged digest must
	// not move — that is the invariant under test.
	Seed int64
	// AfterSend, when non-nil, runs on the tenant's goroutine after each
	// accepted Submit with the tenant index and its sent-so-far count.
	// Tests use it to trigger a fleet-wide swap deterministically
	// mid-replay.
	AfterSend func(tenant, sent int)
}

// ReplayReport summarizes a fleet replay. Hash is the merged verdict digest:
// every verdict's (score, flag) folded in corpus order — the same fold
// engine canaries and serve.ReplayGeneration compute — so two fleet replays
// agree iff their verdicts are bit-identical, regardless of shard count,
// tenant count, or routing seed.
type ReplayReport struct {
	Rows    int    `json:"rows"`
	Flagged int    `json:"flagged"`
	Tenants int    `json:"tenants"`
	Shards  int    `json:"shards"`
	Seed    int64  `json:"seed"`
	Hash    uint64 `json:"-"`
	// ShardRows[i] is how many rows the ring routed to shard i.
	ShardRows []int `json:"shard_rows"`
	// Skew is max shard load over mean shard load (1.0 = perfectly even).
	Skew float64 `json:"skew"`
	// MeanRate is the fleet-wide scoring rate (rows/sec).
	MeanRate float64 `json:"mean_rate"`
}

// HashHex renders the merged digest the way reports carry it.
func (r ReplayReport) HashHex() string { return fmt.Sprintf("%016x", r.Hash) }

// Replay streams a recorded corpus through the fleet — tenants partition the
// rows, the ring routes each tenant to its shard, every shard scores its
// share through the full framing protocol, one exactly-once serve.Stream per
// tenant — and returns the merged verdict digest. Zero loss is enforced, not
// assumed: any reject (an overload one included) or a stats frame from the
// wrong shard fails the replay rather than silently perturbing the digest.
func (f *Fleet) Replay(samples []dataset.Sample, opt ReplayOptions) (ReplayReport, error) {
	rep := ReplayReport{Seed: opt.Seed, Shards: f.Shards()}
	if len(samples) == 0 {
		return rep, nil
	}
	for i, s := range samples {
		if len(s.Raw) != f.rawDim {
			return rep, fmt.Errorf("fleet: replay row %d has %d counters, fleet streams %d", i, len(s.Raw), f.rawDim)
		}
	}
	tenants := opt.Tenants
	if tenants <= 0 {
		tenants = DefaultTenants
	}
	if tenants > len(samples) {
		tenants = len(samples)
	}
	rep.Tenants = tenants

	// Deal rows to tenants and route each tenant to its shard. The key is
	// seed-varied so different runs exercise different placements, but for
	// a given (seed, shards) the route is a pure function.
	rows := make([][]int, tenants)
	for i := range samples {
		t := i % tenants
		rows[t] = append(rows[t], i)
	}
	shardOf := make([]int, tenants)
	addrs := f.Addrs()
	for t := range shardOf {
		key := fmt.Sprintf("tenant-%016x", uint64(runner.DeriveSeed("fleet/tenant", t, opt.Seed)))
		shardOf[t] = f.ring.Shard(Key(key))
	}

	// scores/flags are written at disjoint indices (each row belongs to
	// exactly one tenant), so tenant goroutines never race.
	scores := make([]float64, len(samples))
	flags := make([]bool, len(samples))
	start := time.Now()
	_, err := runner.MapErr(runner.Options{Jobs: tenants}, tenants, func(t int) (struct{}, error) {
		return struct{}{}, f.streamTenant(t, addrs[shardOf[t]], shardOf[t], samples, rows[t], scores, flags, opt.AfterSend)
	})
	if err != nil {
		return rep, err
	}
	elapsed := time.Since(start).Seconds()

	// Merge in corpus order; shard attribution recomputes the pure route.
	d := engine.NewDigest()
	rep.ShardRows = make([]int, f.Shards())
	shardFlagged := make([]int, f.Shards())
	shardDigests := make([]engine.Digest, f.Shards())
	for i := range shardDigests {
		shardDigests[i] = engine.NewDigest()
	}
	for i := range samples {
		d.Add(scores[i], flags[i])
		sh := shardOf[i%tenants]
		rep.ShardRows[sh]++
		if flags[i] {
			shardFlagged[sh]++
		}
		shardDigests[sh].Add(scores[i], flags[i])
	}
	rep.Rows = d.Rows()
	rep.Flagged = d.Flagged()
	rep.Hash = d.Sum()
	rep.Skew = Skew(rep.ShardRows)
	if elapsed > 0 {
		rep.MeanRate = float64(rep.Rows) / elapsed
	}
	for i := range shardDigests {
		f.bus.Verdicts.Publish(VerdictAggregate{
			Shard:   i,
			Rows:    rep.ShardRows[i],
			Flagged: shardFlagged[i],
			Digest:  fmt.Sprintf("%016x", shardDigests[i].Sum()),
		})
	}
	return rep, nil
}

// streamTenant drives one tenant's Stream: submit its rows in corpus order
// (Seq = position within the tenant), finish, and map each verdict back to
// its corpus row. The Stream's session delivers exactly one verdict per
// submitted row; two checks stay here because the Stream cannot know them:
// an overload resend reorders per-session scoring relative to the corpus,
// and the stats frame must come from the shard the ring routed to.
func (f *Fleet) streamTenant(t int, addr string, shard int, samples []dataset.Sample, rows []int, scores []float64, flags []bool, afterSend func(tenant, sent int)) error {
	if len(rows) == 0 {
		return nil
	}
	st := serve.NewStream(serve.StreamOptions{Addr: addr, RawDim: f.rawDim, Name: "fleet/replay", ID: t})
	for sent, idx := range rows {
		s := &samples[idx]
		if err := st.Submit(s.Instructions, s.Cycles, s.Raw); err != nil {
			return fmt.Errorf("fleet: tenant %d row %d: %w", t, idx, err)
		}
		if afterSend != nil {
			afterSend(t, sent+1)
		}
	}
	rep, err := st.Finish()
	if err != nil {
		return fmt.Errorf("fleet: tenant %d: %w", t, err)
	}
	if rep.Stats.Overloads > 0 {
		return fmt.Errorf("fleet: tenant %d: shard %d rejected %d samples for overload; resends reorder scoring",
			t, shard, rep.Stats.Overloads)
	}
	if rep.Conn.Shard != shard {
		return fmt.Errorf("fleet: tenant %d: routed to shard %d but stats frame says shard %d", t, shard, rep.Conn.Shard)
	}
	for _, v := range rep.Verdicts {
		scores[rows[v.Seq]] = v.Score
		flags[rows[v.Seq]] = v.Flagged()
	}
	return nil
}
