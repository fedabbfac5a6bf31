package engine

import (
	"errors"
	"sync"
	"sync/atomic"

	"evax/internal/defense"
	"evax/internal/hpc"
)

// ErrNoFallback is returned by Rollback when no fallback generation exists
// (the initial generation has nothing to roll back to).
var ErrNoFallback = errors.New("engine: no fallback generation to roll back to")

// Swapper holds the active/fallback generation slots — the EVE-style A/B
// partition pair. The active slot is an atomic pointer: the serving hot
// path resolves the current generation with a single load and zero
// allocations, while swaps and rollbacks serialize on a mutex. In-flight
// work keeps whatever generation it resolved, so a swap never invalidates a
// batch mid-score; the next resolution simply observes the new generation.
type Swapper struct {
	active atomic.Pointer[Generation]

	mu       sync.Mutex
	fallback *Generation

	// epoch counts activations (initial adoption, swaps, rollbacks) — the
	// generation sequence number reported next to the content hash.
	epoch atomic.Uint64
}

// NewSwapper adopts initial as the active generation (epoch 1) with no
// fallback.
func NewSwapper(initial *Generation) *Swapper {
	s := &Swapper{}
	s.active.Store(initial)
	s.epoch.Store(1)
	return s
}

// Active returns the current generation: one atomic load, safe from any
// goroutine, zero allocations.
func (s *Swapper) Active() *Generation { return s.active.Load() }

// Fallback returns the fallback generation (nil before the first swap).
func (s *Swapper) Fallback() *Generation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fallback
}

// Epoch returns the activation sequence number: it increments on every
// swap and rollback, so (epoch, hash) identifies which generation answered.
func (s *Swapper) Epoch() uint64 { return s.epoch.Load() }

// Swap atomically promotes cand to active and demotes the previous active
// to the fallback slot, returning the demoted generation. In-flight batches
// that already resolved the old generation finish on it.
func (s *Swapper) Swap(cand *Generation) *Generation {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.active.Load()
	s.active.Store(cand)
	s.fallback = old
	s.epoch.Add(1)
	return old
}

// Rollback atomically re-activates the fallback generation, demoting the
// failed active into the fallback slot (so a post-mortem can still reach
// it). It is the recovery edge of the generation state machine: a failed
// post-swap health probe lands here.
func (s *Swapper) Rollback() (*Generation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fallback == nil {
		return nil, ErrNoFallback
	}
	failed := s.active.Load()
	s.active.Store(s.fallback)
	s.fallback = failed
	s.epoch.Add(1)
	return s.active.Load(), nil
}

// Flagger returns a defense controller flagger that resolves the active
// generation per window: after a hot swap the very next sampled window
// scores on the new generation, with the per-generation pipeline cached so
// the steady state allocates nothing.
func (s *Swapper) Flagger() defense.Flagger {
	return &swapFlagger{sw: s}
}

// swapFlagger adapts the swapper to defense.Flagger. Single-goroutine, like
// every controller flagger.
type swapFlagger struct {
	sw *Swapper
	sc *Scorer
}

// FlagWindow implements defense.Flagger, re-resolving the scorer only when
// the active generation changed.
//
//evaxlint:hotpath
func (f *swapFlagger) FlagWindow(s hpc.Sample) bool {
	if g := f.sw.Active(); f.sc == nil || f.sc.Generation() != g {
		f.sc = g.NewScorer() //evaxlint:ignore hotpath per-swap scorer rebuild; steady state reuses the cached scorer
	}
	return f.sc.FlagWindow(s)
}
