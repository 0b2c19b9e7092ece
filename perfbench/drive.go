package main

import (
	"context"
	"sync"
	"syscall"
	"time"

	"xmlconflict/internal/loadgen"
)

// Phases of a run, in order.
const (
	phaseSetup  = iota // document creation
	phaseWarm          // untimed closed-loop warm-up, fixed length
	phaseOpen          // timed: Poisson arrivals at the workload's rate
	phaseClosed        // timed: every connection sends back to back
	phaseFinal         // the end state read back for the oracle
)

// rec is one executed request. Times are offsets from the phase start;
// due is the scheduled send time (open loop only).
type rec struct {
	conn, phase     int
	req             *request
	resp            *response
	due, sent, done time.Duration
	bad             bool   // the oracle rejected this answer
	size            int    // document size after the op (doc workloads)
	note            string // why the oracle rejected it
}

// latency is the request's time from its due time (open loop) or from
// its send time (other phases).
func (r *rec) latency() time.Duration {
	if r.phase == phaseOpen {
		return r.done - r.due
	}
	return r.done - r.sent
}

// failed reports a transport error, a 5xx, an unexpected status, or an
// oracle rejection.
func (r *rec) failed() bool {
	if r.bad || r.resp.err != "" && r.resp.status != 409 {
		return true
	}
	switch r.resp.status {
	case 200, 201:
		return false
	case 409:
		return r.resp.reason != "conflict"
	}
	return true
}

// runner runs a workload's connections against one executor and keeps
// every record, per connection, in send order.
type runner struct {
	ex      executor
	streams []stream
	log     [][]*rec
}

func newRunner(w workload, seed int64, conns int, ex executor) *runner {
	d := &runner{ex: ex, log: make([][]*rec, conns)}
	for c := 0; c < conns; c++ {
		d.streams = append(d.streams, w.newStream(seed, c))
	}
	return d
}

func (d *runner) exec(ctx context.Context, conn, phase int, r *request, start time.Time, due time.Duration) *rec {
	sent := time.Since(start)
	resp := d.ex.do(ctx, conn, r)
	done := time.Since(start)
	d.streams[conn].observe(r, resp)
	e := &rec{conn: conn, phase: phase, req: r, resp: resp, due: due, sent: sent, done: done}
	d.log[conn] = append(d.log[conn], e)
	return e
}

// populate creates every stream's documents, one connection after the
// other.
func (d *runner) populate(ctx context.Context) {
	start := time.Now()
	for c, s := range d.streams {
		for _, r := range s.populate() {
			d.exec(ctx, c, phaseSetup, r, start, 0)
		}
	}
}

// each runs f once per connection concurrently and waits for all.
func (d *runner) each(f func(conn int)) {
	var wg sync.WaitGroup
	for c := range d.streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
}

// warm sends n operations per connection back to back.
func (d *runner) warm(ctx context.Context, n int) {
	start := time.Now()
	d.each(func(c int) {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			d.exec(ctx, c, phaseWarm, d.streams[c].next(), start, 0)
		}
	})
}

// openLoop sends Poisson arrivals at rate for dur; arrival i belongs to
// connection i mod conns, which sends it at its due time or, if still
// busy, as soon as the previous one returns.
func (d *runner) openLoop(ctx context.Context, rate float64, dur time.Duration, seed int64) error {
	sched, err := loadgen.Schedule(loadgen.ArrivalPoisson, rate, dur, seed)
	if err != nil {
		return err
	}
	n := len(d.streams)
	start := time.Now()
	d.each(func(c int) {
		for i := c; i < len(sched) && ctx.Err() == nil; i += n {
			if wait := sched[i] - time.Since(start); wait > 0 {
				sleep(wait)
			}
			d.exec(ctx, c, phaseOpen, d.streams[c].next(), start, sched[i])
		}
	})
	return nil
}

// sleep blocks for d in nanosleep(2): the runtime's own timers wake a
// sleeping goroutine up to a millisecond late, which the open loop would
// report as generator lateness.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// closedLoop sends back to back on every connection from start for dur
// and returns the elapsed wall time.
func (d *runner) closedLoop(ctx context.Context, start time.Time, dur time.Duration) time.Duration {
	d.each(func(c int) {
		for time.Since(start) < dur && ctx.Err() == nil {
			d.exec(ctx, c, phaseClosed, d.streams[c].next(), start, 0)
		}
	})
	return time.Since(start)
}

// records returns every record of the given phases, connection by
// connection.
func (d *runner) records(phases ...int) []*rec {
	var out []*rec
	for _, l := range d.log {
		for _, r := range l {
			for _, p := range phases {
				if r.phase == p {
					out = append(out, r)
				}
			}
		}
	}
	return out
}

// counts returns how many operations each connection ran per phase.
func (d *runner) counts(phase int) []int {
	out := make([]int, len(d.log))
	for c, l := range d.log {
		for _, r := range l {
			if r.phase == phase {
				out[c]++
			}
		}
	}
	return out
}
