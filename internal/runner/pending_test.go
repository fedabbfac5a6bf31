package runner

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestStartOrderIndependentOfWorkers: a background fan-out returns the
// sequential loop's output for every worker count.
func TestStartOrderIndependentOfWorkers(t *testing.T) {
	fn := func(i int) int { return i*1000 + int(DeriveSeed("bg", i, 0)%1000) }
	want := sequential(300, fn)
	for _, jobs := range []int{1, 2, 3, 4, 0, 1000} {
		if got := Start(Options{Jobs: jobs}, 300, fn).Wait(); !reflect.DeepEqual(got, want) {
			t.Fatalf("jobs=%d: result order diverged from sequential", jobs)
		}
	}
}

// TestStartRepanicsAtWait: job panics never escape Start; Wait re-raises
// the lowest-indexed one as *JobPanic, whatever the completion order.
func TestStartRepanicsAtWait(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		p := Start(Options{Jobs: jobs}, 32, func(i int) int {
			if i >= 5 && i%2 == 1 {
				panic(i)
			}
			return i
		})
		func() {
			defer func() {
				jp, ok := recover().(*JobPanic)
				if !ok {
					t.Fatalf("jobs=%d: Wait did not re-raise a *JobPanic", jobs)
				}
				if jp.Index != 5 || jp.Value != 5 || len(jp.Stack) == 0 {
					t.Fatalf("jobs=%d: bad attribution: index %d value %v", jobs, jp.Index, jp.Value)
				}
			}()
			p.Wait()
		}()
	}
}

// TestStartInlineAtOneJob: Jobs == 1 is the reference ordering, so Start
// runs every job on the calling goroutine, in order, before it returns.
func TestStartInlineAtOneJob(t *testing.T) {
	var order []int // unsynchronised: the race detector flags any worker
	p := Start(Options{Jobs: 1}, 20, func(i int) int {
		order = append(order, i)
		return i
	})
	if len(order) != 20 {
		t.Fatalf("Start returned after %d of 20 jobs, want all of them inline", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("inline order %v, want ascending", order)
		}
	}
	if got := p.Wait(); len(got) != 20 || got[19] != 19 {
		t.Fatalf("Wait after inline run returned %v", got)
	}
}

// TestStartOverlapsCaller: with more than one worker Start returns while
// jobs are still blocked, and the caller's Wait finishes them.
func TestStartOverlapsCaller(t *testing.T) {
	gate := make(chan struct{})
	p := Start(Options{Jobs: 2}, 4, func(i int) int {
		<-gate
		return i * i
	})
	close(gate) // reached only because Start did not run the jobs inline
	if got := p.Wait(); !reflect.DeepEqual(got, []int{0, 1, 4, 9}) {
		t.Fatalf("Wait = %v", got)
	}
	if again := p.Wait(); !reflect.DeepEqual(again, []int{0, 1, 4, 9}) {
		t.Fatalf("second Wait = %v", again)
	}
}

// TestStartConcurrentWait: several goroutines may join one fan-out at
// once; each sees every slot written and the same slice.
func TestStartConcurrentWait(t *testing.T) {
	fn := func(i int) int { return 3*i + 1 }
	want := sequential(200, fn)
	p := Start(Options{Jobs: 3}, 200, fn)
	got := make(chan []int, 4) // one slot per waiter: none blocks if the test fails early
	for k := 0; k < 4; k++ {
		go func() { got <- p.Wait() }()
	}
	for k := 0; k < 4; k++ {
		if r := <-got; !reflect.DeepEqual(r, want) {
			t.Fatal("a concurrent Wait returned a diverged result")
		}
	}
}

// TestStartYield: after Yield the background workers claim no new job,
// and Wait runs the rest, with the sequential loop's results.
func TestStartYield(t *testing.T) {
	started, gate := make(chan struct{}), make(chan struct{})
	var ran atomic.Int64
	fn := func(i int) int {
		if i == 0 {
			close(started)
			<-gate
		}
		ran.Add(1)
		return 2 * i
	}
	p := Start(Options{Jobs: 2}, 10, fn)
	<-started // the one background worker holds job 0
	p.Yield()
	close(gate)
	time.Sleep(50 * time.Millisecond) // time enough to claim jobs 1..9, had Yield not stopped it
	if n := ran.Load(); n > 1 {
		t.Fatalf("background worker ran %d jobs after Yield, want only its in-flight one", n)
	}
	if got := p.Wait(); !reflect.DeepEqual(got, sequential(10, func(i int) int { return 2 * i })) {
		t.Fatalf("Wait after Yield = %v", got)
	}
}

// TestStartSnapshotCounts: a background fan-out counts once, with all its
// jobs, when first joined; one never joined does not count.
func TestStartSnapshotCounts(t *testing.T) {
	for _, jobs := range []int{1, 3} {
		before := Snapshot()
		p := Start(Options{Jobs: jobs}, 10, func(i int) int { return i })
		if mid := Snapshot(); mid != before {
			t.Fatalf("jobs=%d: counted before Wait: %+v, was %+v", jobs, mid, before)
		}
		p.Wait()
		p.Wait()
		after := Snapshot()
		if n := after.JobsRun - before.JobsRun; n != 10 {
			t.Fatalf("jobs=%d: jobs counted: %d", jobs, n)
		}
		if n := after.FanOuts - before.FanOuts; n != 1 {
			t.Fatalf("jobs=%d: fan-outs counted: %d", jobs, n)
		}
	}
	if got := Start(Options{Jobs: 4}, 0, func(i int) int { return i }).Wait(); got != nil {
		t.Fatalf("empty fan-out returned %v", got)
	}
}
