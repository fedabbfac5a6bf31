// Package runner is evax's deterministic fan-out engine. Every simulation
// campaign in the repository — corpus generation, k-fold retraining, fuzz
// sweeps, defense-overhead sweeps — is a set of independent jobs whose
// results must merge into exactly the order a sequential loop would have
// produced. The engine guarantees that:
//
//   - results are index-addressed: job i writes slot i, so the merged output
//     is identical for any worker count and any scheduling interleaving;
//   - jobs never share mutable state: each job derives its own seed via
//     DeriveSeed (a stable hash), never a shared *rand.Rand;
//   - panics are captured per job and re-raised (or returned) with job
//     attribution, and the job chosen is the lowest index — deterministic
//     even when several workers panic in the same run.
//
// The evaxlint rule "goroutine" forbids raw go statements and
// sync.WaitGroup outside this package, so all future concurrency inherits
// the contract. See DESIGN.md §9 for the determinism argument.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures one fan-out.
type Options struct {
	// Jobs is the worker count. Zero or negative means GOMAXPROCS(0).
	// Jobs == 1 executes inline on the calling goroutine (no pool), which
	// is the reference ordering every other worker count must reproduce.
	Jobs int
	// CapturePanics converts job panics into *JobPanic errors returned
	// from MapErr instead of re-panicking on the caller's goroutine.
	CapturePanics bool
	// JobTimeout, when positive, bounds each job's context in the Ctx
	// variants: the job's ctx is cancelled after this duration. Jobs that
	// ignore their context are not interrupted (cancellation is
	// cooperative), but well-behaved jobs return a deadline error, which
	// can be marked Retryable by the job for the retry loop.
	JobTimeout time.Duration
	// Retry re-runs jobs whose error is marked Retryable, with a
	// deterministic backoff schedule. Only the Ctx variants retry.
	Retry Retry
	// OnJobDone, when non-nil, is called after each successful job
	// completion with the total number completed so far (1-based). It is
	// invoked from worker goroutines, so it must be safe for concurrent
	// use; campaigns use it for progress reporting, and the
	// fault-injection tests use it to trigger mid-run cancellation at an
	// exact completion count.
	OnJobDone func(done int)
}

// Workers resolves the effective worker count for n jobs.
func (o Options) Workers(n int) int {
	w := o.Jobs
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// JobPanic is a panic captured inside a worker, attributed to its job.
type JobPanic struct {
	// Index is the job that panicked (the lowest-indexed one when several
	// jobs panic in one fan-out).
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the worker goroutine's stack at recovery time.
	Stack []byte
}

// Error renders the attribution and the original panic value.
func (p *JobPanic) Error() string {
	return fmt.Sprintf("runner: job %d panicked: %v", p.Index, p.Value)
}

// Stats is a process-wide snapshot of engine activity, for throughput
// reporting in cmd/evaxbench and cmd/evaxtrain.
type Stats struct {
	// JobsRun counts jobs executed since process start; a background
	// fan-out's jobs count when it is joined (Pending.Wait).
	JobsRun uint64
	// FanOuts counts Map/MapErr invocations and joined Start fan-outs.
	FanOuts uint64
}

var (
	statJobs    atomic.Uint64
	statFanOuts atomic.Uint64
)

// Snapshot returns the cumulative engine statistics. Callers measuring one
// campaign take a snapshot before and after and subtract.
func Snapshot() Stats {
	return Stats{JobsRun: statJobs.Load(), FanOuts: statFanOuts.Load()}
}

// Map runs fn(0..n-1) across the worker pool and returns the results in
// index order — byte-identical to a sequential loop regardless of worker
// count. A job panic is re-raised on the caller's goroutine as *JobPanic.
func Map[T any](o Options, n int, fn func(i int) T) []T {
	o.CapturePanics = false
	//evaxlint:ignore droppederr error-free by construction: fn returns nil errors and panics re-raise
	out, _ := MapErr(o, n, func(i int) (T, error) { return fn(i), nil })
	return out
}

// MapErr runs fn(0..n-1) across the pool. Results are index-addressed; the
// returned error is the lowest-indexed job error (deterministic across
// scheduling), wrapped with its job index. With Options.CapturePanics, a
// job panic surfaces as a *JobPanic error under the same lowest-index rule;
// otherwise it re-panics on the caller's goroutine.
func MapErr[T any](o Options, n int, fn func(i int) (T, error)) ([]T, error) {
	out, _, err := MapErrCtx(context.Background(), o, n, func(_ context.Context, i int) (T, error) {
		return fn(i)
	})
	return out, err
}

// forEachIndex drives the claim loop shared by every fan-out: workers
// atomically claim ascending indices until the range is exhausted or ctx is
// done. A cancelled campaign stops claiming new jobs; in-flight jobs run to
// completion (cancellation is cooperative — jobs see ctx through their own
// argument).
func forEachIndex(ctx context.Context, o Options, n int, runJob func(i int, done func() int)) {
	var doneCount atomic.Int64
	done := func() int { return int(doneCount.Add(1)) }
	if w := o.Workers(n); w == 1 {
		// Reference ordering: inline, no goroutines.
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			runJob(i, done)
		}
		return
	}
	w := o.Workers(n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runJob(i, done)
			}
		}()
	}
	wg.Wait()
}

// FlatMap runs fn(0..n-1) and concatenates the per-job slices in job order
// — the shape of every corpus merge (each job yields a batch of samples).
func FlatMap[T any](o Options, n int, fn func(i int) []T) []T {
	batches := Map(o, n, fn)
	total := 0
	for _, b := range batches {
		total += len(b)
	}
	out := make([]T, 0, total)
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

// stack captures the recovering goroutine's stack for JobPanic.
func stack() []byte {
	buf := make([]byte, 16<<10)
	return buf[:runtime.Stack(buf, false)]
}
