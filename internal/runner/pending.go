package runner

import (
	"sync"
	"sync/atomic"
)

// Pending is a fan-out running in the background while its caller does
// other work. Start launches it; Wait joins it and returns the results.
// The contract is Map's: results are index-addressed, so they are identical
// for every worker count, and a job panic re-raises at Wait as the
// lowest-indexed *JobPanic.
type Pending[T any] struct {
	results []T
	panics  []*JobPanic
	workers int
	next    atomic.Int64
	yielded atomic.Bool
	pending sync.WaitGroup // one count per job, so Wait sees every slot written
	join    sync.Once
	run     func(i int)
}

// Start runs fn(0..n-1) in the background and returns at once. It leaves
// one of the fan-out's workers to the caller: with w = o.Workers(n), w-1
// goroutines start claiming jobs now, and Wait's caller claims alongside
// them until the range is exhausted. With one worker (Jobs == 1, the
// reference ordering) Start runs every job inline before returning, so
// nothing overlaps the caller. The background goroutines exit once no job
// is left to claim or Yield is called, whether or not anyone calls Wait.
//
// A background fan-out is counted in Snapshot when it is joined: the first
// Wait adds one fan-out and n jobs, however many ran before it.
func Start[T any](o Options, n int, fn func(i int) T) *Pending[T] {
	if n <= 0 {
		return &Pending[T]{}
	}
	p := &Pending[T]{results: make([]T, n), panics: make([]*JobPanic, n), workers: o.Workers(n)}
	p.pending.Add(n)
	p.run = func(i int) {
		defer p.pending.Done()
		defer func() {
			if r := recover(); r != nil {
				p.panics[i] = &JobPanic{Index: i, Value: r, Stack: stack()}
			}
		}()
		p.results[i] = fn(i)
	}
	if p.workers == 1 {
		p.claim(false)
		return p
	}
	for k := 1; k < p.workers; k++ {
		go p.claim(true)
	}
	return p
}

// claim runs unclaimed jobs in ascending order until none are left. A
// background claimer also stops at Yield.
func (p *Pending[T]) claim(background bool) {
	for !background || !p.yielded.Load() {
		i := int(p.next.Add(1)) - 1
		if i >= len(p.results) {
			return
		}
		p.run(i)
	}
}

// Yield stops the background workers claiming jobs: each finishes the job
// it is running and exits, and the jobs left unclaimed wait for Wait. A
// caller yields when the idle cores it started the fan-out to use are
// about to be wanted elsewhere. Results are unchanged.
func (p *Pending[T]) Yield() { p.yielded.Store(true) }

// Wait claims any jobs not yet started, blocks until every job is done and
// returns the results in index order. After a Yield it spreads the
// remaining jobs over the fan-out's workers again. A job panic re-raises
// here as the lowest-indexed *JobPanic. Wait may be called more than once,
// from any goroutine; every call returns the same slice.
func (p *Pending[T]) Wait() []T {
	if p.run == nil {
		return nil
	}
	p.join.Do(func() {
		statFanOuts.Add(1)
		statJobs.Add(uint64(len(p.results)))
		if p.yielded.Load() {
			for k := 1; k < p.workers; k++ {
				go p.claim(false)
			}
		}
	})
	p.claim(false)
	p.pending.Wait()
	for _, jp := range p.panics { // lowest index wins: deterministic attribution
		if jp != nil {
			panic(jp)
		}
	}
	return p.results
}
