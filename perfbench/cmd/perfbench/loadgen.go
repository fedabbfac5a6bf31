package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"evax/internal/dataset"
	"evax/internal/runner"
	"evax/internal/serve"
)

// poissonSchedule returns the due times (ns after the phase starts) of a
// Poisson arrival process at rate per second over dur, drawn from seed.
func poissonSchedule(rate float64, dur time.Duration, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	var due []int64
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate * 1e9
		if t >= float64(dur) {
			return due
		}
		due = append(due, int64(t))
	}
}

// stream is what the load generator needs to know about the rows it sends:
// which row a (connection, sequence number) carries and whether a verdict
// for it is correct.
type stream interface {
	row(conn int, seq uint64) *dataset.Sample
	ok(conn int, v serve.Verdict) bool
}

// envStream streams a serving environment's rows over conns connections and
// accepts the offline answers of gens.
type envStream struct {
	env   *servingEnv
	conns int
	gens  []offline
}

func (s envStream) row(conn int, seq uint64) *dataset.Sample {
	return &s.env.rows[s.env.rowFor(conn, s.conns, seq)]
}

func (s envStream) ok(conn int, v serve.Verdict) bool {
	return s.env.verdictOK(conn, s.conns, v, s.gens)
}

// openPlan is one open-loop phase: each connection sends on its own seeded
// Poisson schedule, whatever the server does. A sample's latency runs from
// its due time, not from when it was actually sent, so a stall that holds
// the generator back is charged to every sample it delays.
type openPlan struct {
	addr   string
	rawDim int
	due    [][]int64 // per connection
	src    stream
	// swapEvery, when positive, adds an admin connection that promotes
	// swapPaths[1], swapPaths[0], ... alternately, one swap per period.
	swapEvery time.Duration
	swapPaths [2]string
	dur       time.Duration
	timeSends bool
}

// newOpenPlan draws each connection's schedule from
// runner.DeriveSeed(name, conn, seed); the rate is split evenly.
func newOpenPlan(name string, seed int64, addr string, rawDim int, rate float64, conns int, dur time.Duration, src stream) openPlan {
	p := openPlan{addr: addr, rawDim: rawDim, src: src, dur: dur}
	for c := 0; c < conns; c++ {
		p.due = append(p.due, poissonSchedule(rate/float64(conns), dur, runner.DeriveSeed(name, c, seed)))
	}
	return p
}

// swapRecord is one admin swap: its window and whether it went live.
type swapRecord struct {
	startNs, endNs int64
	ok             bool
	reason         string
}

// windows is how many equal slices of a phase its percentiles and rates
// are taken over. A phase reports the median slice, so one burst of noise
// from outside the benchmark moves a figure by one slice, not the phase.
const windows = 5

// openResult is the outcome of one open-loop phase.
type openResult struct {
	dur       time.Duration
	latMs     []float64 // due → verdict, answered samples only
	dueNs     []int64   // due time of each latMs entry
	lagMs     []float64 // due → actually sent
	sendUs    []float64 // time inside Client.Send (timeSends only)
	windowMs  []float64 // latency of verdicts received during a swap
	sent      int
	answered  int
	rejected  int
	wrong     int
	swaps     []swapRecord
	failedOps int
}

// jobOut is what one load-generator job hands back; each role fills its
// own fields.
type jobOut struct {
	lagNs, sendNs []int64
	recvNs        []int64 // per sequence number; -1 = never answered
	rejected      int
	wrong         int
	swaps         []swapRecord
}

// runOpen drives one open-loop phase. Each connection gets a sender and a
// receiver job, so sends never wait behind verdict reads; the admin
// connection, if any, is one more job.
func runOpen(ctx context.Context, p openPlan) (openResult, error) {
	conns := len(p.due)
	clients := make([]*serve.Client, conns+1)
	defer func() {
		for _, cl := range clients {
			if cl != nil {
				//evaxlint:ignore droppederr teardown after bye/stats; the phase result is already decided
				cl.Close()
			}
		}
	}()
	nDial := conns
	if p.swapEvery > 0 {
		nDial++
	}
	for i := 0; i < nDial; i++ {
		cl, err := serve.Dial(p.addr, p.rawDim)
		if err != nil {
			return openResult{}, fmt.Errorf("dial: %w", err)
		}
		clients[i] = cl
	}
	base := time.Now()
	deadline := base.Add(p.dur + 60*time.Second)
	for _, cl := range clients[:nDial] {
		if err := cl.SetReadDeadline(deadline); err != nil {
			return openResult{}, err
		}
	}

	jobs := 2 * conns
	if p.swapEvery > 0 {
		jobs++
	}
	outs, err := runner.MapErr(runner.Options{Jobs: jobs}, jobs, func(j int) (jobOut, error) {
		switch {
		case j < conns:
			return sendOpen(ctx, clients[j], j, p, base)
		case j < 2*conns:
			c := j - conns
			return receive(clients[c], c, len(p.due[c]), p.src, base)
		default:
			return adminSwaps(ctx, clients[conns], p, base)
		}
	})
	if err != nil {
		return openResult{}, err
	}

	res := openResult{dur: p.dur}
	if p.swapEvery > 0 {
		res.swaps = outs[2*conns].swaps
	}
	for c := 0; c < conns; c++ {
		snd, rcv := outs[c], outs[conns+c]
		res.sent += len(p.due[c])
		res.rejected += rcv.rejected
		res.wrong += rcv.wrong
		res.lagMs = append(res.lagMs, nsToMs(snd.lagNs)...)
		for _, ns := range snd.sendNs {
			res.sendUs = append(res.sendUs, float64(ns)/1e3)
		}
		for seq, at := range rcv.recvNs {
			if at < 0 {
				continue
			}
			res.answered++
			lat := float64(at-p.due[c][seq]) / 1e6
			res.latMs = append(res.latMs, lat)
			res.dueNs = append(res.dueNs, p.due[c][seq])
			if inSwap(res.swaps, at) {
				res.windowMs = append(res.windowMs, lat)
			}
		}
	}
	res.failedOps = res.sent - res.answered + res.wrong
	return res, nil
}

// lat returns the p-quantile latency in ms: the median over the phase's
// slices (by due time) of each slice's p-quantile.
func (r *openResult) lat(p float64) float64 {
	per := make([][]float64, windows)
	for i, l := range r.latMs {
		w := min(int(r.dueNs[i]*windows/int64(r.dur)), windows-1)
		per[w] = append(per[w], l)
	}
	var vals []float64
	for _, s := range per {
		if len(s) > 0 {
			vals = append(vals, quantile(s, p))
		}
	}
	return median(vals)
}

func inSwap(swaps []swapRecord, ns int64) bool {
	for _, s := range swaps {
		if ns >= s.startNs && ns <= s.endNs {
			return true
		}
	}
	return false
}

// sleepUntil waits until at (ns after base) or ctx ends.
func sleepUntil(ctx context.Context, base time.Time, at int64) error {
	if wait := time.Duration(at - time.Since(base).Nanoseconds()); wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// sendOpen sends connection c's samples on schedule. A sample whose due
// time has passed goes out at once: a generator that falls behind catches
// up without skipping any sample, and its lag is recorded.
func sendOpen(ctx context.Context, cl *serve.Client, c int, p openPlan, base time.Time) (jobOut, error) {
	due := p.due[c]
	out := jobOut{lagNs: make([]int64, len(due))}
	if p.timeSends {
		out.sendNs = make([]int64, 0, len(due))
	}
	var instrStart uint64
	for i, at := range due {
		if err := sleepUntil(ctx, base, at); err != nil {
			return out, err
		}
		now := time.Since(base).Nanoseconds()
		out.lagNs[i] = now - at
		s := p.src.row(c, uint64(i))
		h := serve.SampleHeader{Seq: uint64(i), InstrStart: instrStart}
		var err error
		if p.timeSends {
			t0 := time.Now()
			err = cl.Send(h, s.Instructions, s.Cycles, s.Raw)
			out.sendNs = append(out.sendNs, time.Since(t0).Nanoseconds())
		} else {
			err = cl.Send(h, s.Instructions, s.Cycles, s.Raw)
		}
		if err != nil {
			return out, fmt.Errorf("conn %d send %d: %w", c, i, err)
		}
		instrStart += s.Instructions
	}
	if err := cl.Bye(); err != nil {
		return out, fmt.Errorf("conn %d bye: %w", c, err)
	}
	return out, nil
}

// receive reads connection c's answers until its stats frame, stamping
// each verdict on arrival and checking it against the offline answer.
func receive(cl *serve.Client, c, n int, src stream, base time.Time) (jobOut, error) {
	out := jobOut{recvNs: make([]int64, n)}
	for i := range out.recvNs {
		out.recvNs[i] = -1
	}
	for {
		fr, err := cl.Recv()
		if err != nil {
			return out, fmt.Errorf("conn %d recv: %w", c, err)
		}
		now := time.Since(base).Nanoseconds()
		switch fr.Type {
		case serve.FrameVerdict:
			v, err := serve.DecodeVerdict(fr.Payload)
			if err != nil {
				return out, err
			}
			if v.Seq >= uint64(n) || out.recvNs[v.Seq] >= 0 {
				out.wrong++ // unknown or duplicate sequence number
				continue
			}
			out.recvNs[v.Seq] = now
			if !src.ok(c, v) {
				out.wrong++
			}
		case serve.FrameReject:
			out.rejected++
		case serve.FrameStats:
			return out, nil
		case serve.FrameDrain, serve.FramePong:
		case serve.FrameError:
			return out, fmt.Errorf("conn %d: server error: %s", c, fr.Payload)
		default:
			return out, fmt.Errorf("conn %d: unexpected frame type 0x%02x", c, fr.Type)
		}
	}
}

// adminSwaps promotes the two bundles alternately (B first, A was active),
// one swap per period, each anchored to the schedule rather than to the
// previous swap's end.
func adminSwaps(ctx context.Context, cl *serve.Client, p openPlan, base time.Time) (jobOut, error) {
	var out jobOut
	for k := 0; ; k++ {
		at := p.swapEvery/2 + time.Duration(k)*p.swapEvery
		if at >= p.dur {
			return out, nil
		}
		if err := sleepUntil(ctx, base, at.Nanoseconds()); err != nil {
			return out, err
		}
		rec := swapRecord{startNs: time.Since(base).Nanoseconds()}
		res, err := cl.Swap(p.swapPaths[(k+1)%2])
		rec.endNs = time.Since(base).Nanoseconds()
		switch {
		case err != nil:
			return out, fmt.Errorf("swap %d: %w", k, err)
		case !res.Ok || res.Report == nil || !res.Report.Swapped || res.Report.RolledBack:
			rec.reason = res.Error
		default:
			rec.ok = true
		}
		out.swaps = append(out.swaps, rec)
	}
}

// closedResult is the outcome of a closed-loop phase.
type closedResult struct {
	verdicts  int
	rates     []float64 // verdicts per second of each burst
	sent      int
	failedOps int
}

// errReceiverGone stops a closed-loop sender whose receiver has ended.
var errReceiverGone = errors.New("receiver ended before the sender")

// runBurst runs one closed-loop burst of dur on a collected heap and adds
// its rate and counts to acc. A burst's rate settles into one of several
// levels and keeps it for the burst, so a trimmed mean over many short
// bursts, each on fresh connections, is steadier than one long burst.
func runBurst(ctx context.Context, addr string, rawDim, conns, window int, dur time.Duration, src stream, acc *closedResult) error {
	runtime.GC()
	r, inTime, err := closedBurst(ctx, addr, rawDim, conns, window, dur, src)
	if err != nil {
		return fmt.Errorf("burst %d: %w", len(acc.rates), err)
	}
	acc.sent += r.sent
	acc.failedOps += r.failedOps
	acc.rates = append(acc.rates, float64(inTime)/dur.Seconds())
	return nil
}

// closedBurst keeps window samples in flight on each connection for dur.
// The window stays below the server's admission bound, so nothing is
// refused. It also returns how many verdicts arrived within dur.
func closedBurst(ctx context.Context, addr string, rawDim, conns, window int, dur time.Duration, src stream) (closedResult, int, error) {
	clients := make([]*serve.Client, conns)
	defer func() {
		for _, cl := range clients {
			if cl != nil {
				//evaxlint:ignore droppederr teardown after bye/stats; the phase result is already decided
				cl.Close()
			}
		}
	}()
	credits := make([]chan struct{}, conns)
	stops := make([]chan struct{}, conns)
	for c := range clients {
		cl, err := serve.Dial(addr, rawDim)
		if err != nil {
			return closedResult{}, 0, fmt.Errorf("dial: %w", err)
		}
		clients[c] = cl
		credits[c] = make(chan struct{}, window) // one slot per sample in flight
		stops[c] = make(chan struct{})
	}
	base := time.Now()
	for _, cl := range clients {
		if err := cl.SetReadDeadline(base.Add(dur + 60*time.Second)); err != nil {
			return closedResult{}, 0, err
		}
	}
	type out struct {
		sent, verdicts, wrong, inTime int
	}
	outs, err := runner.MapErr(runner.Options{Jobs: 2 * conns}, 2*conns, func(j int) (out, error) {
		if j < conns {
			var o out
			cl := clients[j]
			var instrStart uint64
			for seq := uint64(0); time.Since(base) < dur; seq++ {
				select {
				case credits[j] <- struct{}{}:
				case <-stops[j]:
					return o, errReceiverGone
				case <-ctx.Done():
					return o, ctx.Err()
				}
				s := src.row(j, seq)
				if err := cl.Send(serve.SampleHeader{Seq: seq, InstrStart: instrStart}, s.Instructions, s.Cycles, s.Raw); err != nil {
					return o, fmt.Errorf("conn %d send %d: %w", j, seq, err)
				}
				instrStart += s.Instructions
				o.sent++
			}
			return o, clients[j].Bye()
		}
		c := j - conns
		defer close(stops[c])
		var o out
		for {
			fr, err := clients[c].Recv()
			if err != nil {
				return o, fmt.Errorf("conn %d recv: %w", c, err)
			}
			switch fr.Type {
			case serve.FrameVerdict, serve.FrameReject:
				<-credits[c]
				if time.Since(base) < dur {
					o.inTime++
				}
				if fr.Type == serve.FrameReject {
					continue
				}
				v, err := serve.DecodeVerdict(fr.Payload)
				if err != nil {
					return o, err
				}
				o.verdicts++
				if !src.ok(c, v) {
					o.wrong++
				}
			case serve.FrameStats:
				return o, nil
			case serve.FrameDrain, serve.FramePong:
			case serve.FrameError:
				return o, fmt.Errorf("conn %d: server error: %s", c, fr.Payload)
			default:
				return o, fmt.Errorf("conn %d: unexpected frame type 0x%02x", c, fr.Type)
			}
		}
	})
	if err != nil {
		return closedResult{}, 0, err
	}
	var res closedResult
	inTime := 0
	for c := 0; c < conns; c++ {
		res.sent += outs[c].sent
		r := outs[conns+c]
		res.verdicts += r.verdicts
		res.failedOps += r.wrong
		inTime += r.inTime
	}
	// Every sample sent and not answered with a correct verdict failed.
	res.failedOps += res.sent - res.verdicts
	return res, inTime, nil
}
