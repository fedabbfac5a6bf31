// Package faultinject is the deterministic fault-injection harness for the
// campaign stack. A Plan derives its fault schedule from a seed via the
// same FNV hash the runner uses for job seeds, so "which jobs fault, on
// which attempts" is a pure function of (domain, seed, job index, attempt)
// — every run of a test injects exactly the same faults, under any worker
// count, with no RNG state shared between jobs.
//
// The harness covers both fault surfaces the engine defends:
//
//   - compute faults: WithErrors / WithPanics / WithSlowdown wrap a
//     runner.MapErrCtx job function to fail, panic, or stall on scheduled
//     attempts — exercising retry, panic attribution, and deadlines;
//   - I/O faults: TornWriteHook / FailOpHook build safeio.Hook values that
//     tear or fail specific steps of the persistence protocol —
//     exercising crash-safe writes and checkpoint-journal recovery.
//
// Production code never imports this package; it exists for tests.
package faultinject

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"evax/internal/runner"
	"evax/internal/safeio"
)

// Plan is a deterministic fault schedule over job indices.
type Plan struct {
	// Domain namespaces the schedule so independent planes of faults
	// (errors vs panics vs slowdowns) in one test draw different jobs.
	Domain string
	// Seed selects one schedule out of the family; tests vary it to cover
	// different fault placements without losing reproducibility.
	Seed int64
	// Rate is the fraction of jobs faulted, in [0, 1]. 0 disables the
	// plan; 1 faults every job.
	Rate float64
	// Fails is how many leading attempts of a faulted job misbehave before
	// it succeeds; 0 means 1. A value at or above the retry budget makes
	// the fault permanent.
	Fails int
}

func (p Plan) fails() int {
	if p.Fails <= 0 {
		return 1
	}
	return p.Fails
}

// Faulty reports whether job i is on the schedule — a pure function of the
// plan and i.
func (p Plan) Faulty(i int) bool {
	if p.Rate <= 0 {
		return false
	}
	if p.Rate >= 1 {
		return true
	}
	h := uint64(runner.DeriveSeed("faultinject/"+p.Domain, i, p.Seed))
	return float64(h>>11)/float64(1<<53) < p.Rate
}

// ShouldFault reports whether attempt k (1-based) of job i misbehaves:
// faulted jobs fail their first Fails attempts and then run clean, which is
// exactly the transient-fault shape the retry loop must absorb.
func (p Plan) ShouldFault(i, k int) bool {
	return p.Faulty(i) && k <= p.fails()
}

// FaultCount returns how many of the first n jobs the plan faults.
func (p Plan) FaultCount(n int) int {
	c := 0
	for i := 0; i < n; i++ {
		if p.Faulty(i) {
			c++
		}
	}
	return c
}

// JobFn mirrors the runner.MapErrCtx job signature.
type JobFn[T any] func(ctx context.Context, i int) (T, error)

// attemptTracker counts executions per job so wrappers know which attempt
// is running; runner.Report counts the same thing, but the wrapper cannot
// see it.
type attemptTracker []atomic.Int32

func newTracker(n int) attemptTracker { return make(attemptTracker, n) }

func (t attemptTracker) next(i int) int { return int(t[i].Add(1)) }

// WithErrors wraps fn for an n-job campaign: scheduled attempts fail with a
// retryable error instead of running the job.
func WithErrors[T any](p Plan, n int, fn JobFn[T]) JobFn[T] {
	tr := newTracker(n)
	return func(ctx context.Context, i int) (T, error) {
		if k := tr.next(i); p.ShouldFault(i, k) {
			var zero T
			return zero, runner.Retryable(fmt.Errorf("faultinject: injected error on job %d attempt %d", i, k))
		}
		return fn(ctx, i)
	}
}

// WithPanics wraps fn: scheduled attempts panic, exercising the engine's
// capture and lowest-index attribution.
func WithPanics[T any](p Plan, n int, fn JobFn[T]) JobFn[T] {
	tr := newTracker(n)
	return func(ctx context.Context, i int) (T, error) {
		if k := tr.next(i); p.ShouldFault(i, k) {
			panic(fmt.Sprintf("faultinject: injected panic on job %d attempt %d", i, k))
		}
		return fn(ctx, i)
	}
}

// WithSlowdown wraps fn: scheduled attempts stall for delay before running
// (honoring ctx), exercising per-job deadlines and cancellation latency.
func WithSlowdown[T any](p Plan, n int, delay time.Duration, fn JobFn[T]) JobFn[T] {
	tr := newTracker(n)
	return func(ctx context.Context, i int) (T, error) {
		if k := tr.next(i); p.ShouldFault(i, k) {
			t := time.NewTimer(delay)
			select {
			case <-ctx.Done():
				t.Stop()
				var zero T
				return zero, ctx.Err()
			case <-t.C:
			}
		}
		return fn(ctx, i)
	}
}

// TornWriteHook builds a safeio.Hook that tears the k-th write (0-based)
// passing through safeio — the simulated power cut. Subsequent writes
// proceed normally, so a test can fail one artifact and watch the campaign
// degrade gracefully.
func TornWriteHook(k int) safeio.Hook {
	var writes atomic.Int32
	return func(op safeio.Op, _ string) error {
		if op != safeio.OpWrite {
			return nil
		}
		if int(writes.Add(1))-1 == k {
			return fmt.Errorf("faultinject: %w", safeio.ErrTorn)
		}
		return nil
	}
}

// TornPathHook builds a safeio.Hook that tears the k-th write (0-based)
// whose destination path contains substr, leaving every other write intact.
// Multi-file protocols (e.g. the engine's generation staging: candidate
// file, then ledger) use it to crash exactly one named step and assert the
// others recover.
func TornPathHook(substr string, k int) safeio.Hook {
	var writes atomic.Int32
	return func(op safeio.Op, path string) error {
		if op != safeio.OpWrite || !strings.Contains(path, substr) {
			return nil
		}
		if int(writes.Add(1))-1 == k {
			return fmt.Errorf("faultinject: %w", safeio.ErrTorn)
		}
		return nil
	}
}

// FailOpHook builds a safeio.Hook that fails every occurrence of op after
// skipping the first skip occurrences — e.g. "the second fsync returns
// ENOSPC, and every one after it".
func FailOpHook(op safeio.Op, skip int) safeio.Hook {
	var seen atomic.Int32
	return func(got safeio.Op, path string) error {
		if got != op {
			return nil
		}
		if int(seen.Add(1)) <= skip {
			return nil
		}
		return fmt.Errorf("faultinject: injected %s failure on %s", op, path)
	}
}
