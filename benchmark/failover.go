package main

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"gridrep/internal/wire"
)

// clock is the time source the open-loop pacer runs on; tests substitute
// a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// pace emits n operations on a fixed schedule: operation i is due at
// start + i×interval whatever happened to the earlier ones, so a stall
// delays nothing but is charged to the operations that were due during
// it. It returns how late each emission ran behind its due time.
func pace(clk clock, start time.Time, interval time.Duration, n int, emit func(i int, due time.Time)) []time.Duration {
	lags := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		lags = append(lags, clk.Now().Sub(due))
		emit(i, due)
	}
	return lags
}

// dueOp is one paced operation waiting for a free client.
type dueOp struct {
	it  intent
	due int64 // ns since the run epoch
}

// runOpen offers the counter workload at a fixed rate for d: one pacing
// goroutine draws intents from the pacing stream and queues them at
// their due times; the clients take them in order, each timing its
// operation from when it was due. It returns the operations and the
// generator lag per emission in milliseconds.
func (r *rig) runOpen(d time.Duration) ([]opRecord, []float64) {
	n := int(d.Seconds() * failoverRate)
	interval := time.Duration(float64(time.Second) / failoverRate)
	// Sized for every operation of the window, so the pacer never blocks
	// on a stalled cluster.
	queue := make(chan dueOp, n)
	per := make([][]opRecord, len(r.counters))
	var wg sync.WaitGroup
	for i, s := range r.counters {
		wg.Add(1)
		go func(i int, s *counterSession) {
			defer wg.Done()
			for op := range queue {
				per[i] = append(per[i], s.exec(op.it, op.due))
			}
		}(i, s)
	}
	lags := pace(wallClock{}, time.Now(), interval, n, func(_ int, due time.Time) {
		queue <- dueOp{it: r.pacing.next(), due: int64(due.Sub(r.epoch))}
	})
	close(queue)
	wg.Wait()
	var all []opRecord
	for _, recs := range per {
		all = append(all, recs...)
	}
	lagMS := make([]float64, len(lags))
	for i, l := range lags {
		lagMS[i] = float64(l) / 1e6
	}
	return all, lagMS
}

// crash is one injected leader failure.
type crash struct {
	at        int64 // crash instant, ns since the run epoch
	node      wire.NodeID
	restartMS float64 // WAL reload + restart, once the node came back

	// Traced run: when a survivor first left the backup role and first
	// reported leading (ns since the run epoch; 0 = not observed).
	detectAt, leadAt int64
}

// crashSchedule places the leader crashes of a window of length d: one
// every failoverPeriod starting failoverFirst in, each shifted by up to
// ±250 ms from the seed so crashes do not lock step with the pacer, and
// none so late that the restart would outlive the window.
func crashSchedule(seed int64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var out []time.Duration
	for at := failoverFirst; at+failoverDown+time.Second <= d; at += failoverPeriod {
		out = append(out, at+time.Duration(rng.Int63n(int64(500*time.Millisecond)))-250*time.Millisecond)
	}
	return out
}

// injectCrashes crashes the current leader at each scheduled offset from
// start and restarts it failoverDown later, appending to r.crashes.
// retire is called with the node just before it goes down and rejoin
// after it is back, so registry deltas survive the restart.
func (r *rig) injectCrashes(start time.Time, schedule []time.Duration, retire, rejoin func(wire.NodeID)) error {
	for _, offset := range schedule {
		time.Sleep(time.Until(start.Add(offset)))
		leader, ok := r.cluster.cl.Leader()
		if !ok {
			continue // still electing after the previous crash; skip this one
		}
		retire(leader)
		c := &crash{at: int64(time.Since(r.epoch)), node: leader}
		r.mu.Lock()
		r.crashes = append(r.crashes, c)
		r.mu.Unlock()
		took, err := r.cluster.crashRestart(leader, failoverDown)
		if err != nil {
			return err
		}
		c.restartMS = float64(took) / 1e6
		rejoin(leader)
	}
	return nil
}

// watchRoles polls every running replica's role once a millisecond until
// stop is closed and stamps, on the latest crash, when a survivor first
// left the backup role and when one first led.
func (r *rig) watchRoles(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		time.Sleep(time.Millisecond)
		r.mu.Lock()
		var cur *crash
		if n := len(r.crashes); n > 0 {
			cur = r.crashes[n-1]
		}
		r.mu.Unlock()
		if cur == nil || cur.leadAt != 0 {
			continue
		}
		now := int64(time.Since(r.epoch))
		for _, h := range r.dep.healths() {
			if h.ID == cur.node {
				continue
			}
			if h.Role != "backup" && cur.detectAt == 0 {
				cur.detectAt = now
			}
			if h.Leading {
				cur.leadAt = now
			}
		}
	}
}

// unavailability returns, for each crash, the time from the crash to the
// first completion among operations that were due after it, in ms.
func unavailability(crashes []*crash, ops []opRecord) []float64 {
	byEnd := make([]*opRecord, 0, len(ops))
	for i := range ops {
		if !ops[i].Failed {
			byEnd = append(byEnd, &ops[i])
		}
	}
	sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].End < byEnd[j].End })
	var out []float64
	for _, c := range crashes {
		for _, op := range byEnd {
			if op.Due >= c.at {
				out = append(out, float64(op.End-c.at)/1e6)
				break
			}
		}
	}
	return out
}
