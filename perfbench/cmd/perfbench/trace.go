package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"evax/internal/safeio"
)

// span is one timed interval at a layer boundary, recorded around a call
// from the benchmark into a module's public API. Parent links a span to the
// phase that caused it; IDs are unique within one run.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out once, at the end of the
// run. A disabled tracer records nothing, so the untraced run pays only a
// branch per boundary. Spans are recorded from the orchestrating goroutine
// only; load-generator jobs keep their own timing slices and hand them back
// when they finish.
type tracer struct {
	on    bool
	base  time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, base: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: time.Since(t.base).Nanoseconds()})
	return id
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if !t.on || id == 0 {
		return 0
	}
	s := &t.spans[id-1]
	s.EndNs = time.Since(t.base).Nanoseconds()
	return float64(s.EndNs-s.StartNs) / 1e9
}

// seconds returns the duration of the first span called name, in seconds.
func (t *tracer) seconds(name string) float64 {
	for _, s := range t.spans {
		if s.Name == name {
			return float64(s.EndNs-s.StartNs) / 1e9
		}
	}
	return 0
}

// write stores every span as JSON under dir (crash-safe, like every file the
// repository writes).
func (t *tracer) write(dir, name string) (string, error) {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", fmt.Errorf("encoding spans: %w", err)
	}
	path := filepath.Join(dir, name)
	return path, safeio.WriteFile(path, data, 0o644)
}

// quantile returns the nearest-rank p-quantile of vals (sorted in place).
func quantile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	i := int(p * float64(len(vals)))
	if i >= len(vals) {
		i = len(vals) - 1
	}
	return vals[i]
}

// median returns the middle value of vals (sorted in place).
func median(vals []float64) float64 { return quantile(vals, 0.5) }

// mean returns the arithmetic mean of vals.
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// interquartileMean is the mean of the middle half of vals: the bursts a
// slow spell on the host held back, and the luckiest ones, are left out.
func interquartileMean(vals []float64) float64 {
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	return mean(v[len(v)/4 : len(v)-len(v)/4])
}

// nsToMs converts nanosecond samples to milliseconds.
func nsToMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// timeReps calls fn until at least minDur has elapsed (and at least once)
// and returns the median seconds per call.
func timeReps(minDur time.Duration, fn func()) float64 {
	var per []float64
	start := time.Now()
	for len(per) == 0 || time.Since(start) < minDur {
		t0 := time.Now()
		fn()
		per = append(per, time.Since(t0).Seconds())
	}
	return median(per)
}
