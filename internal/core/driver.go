package core

import (
	"runtime"
	"sync"
	"time"

	"gridrep/internal/storage"
	"gridrep/internal/transport"
	"gridrep/internal/wire"
)

// The wall-clock driver (DESIGN.md §20): the one goroutine that owns a
// replica's channels and timer and feeds the step functions time.Now()
// per input, plus the goroutines it starts beside it — the persister,
// the snapshotter and the read pool. The simulator in sim_test.go is the
// other driver.
type driver struct {
	persist  *persister   // the flush goroutine, when the store stages records
	snaps    *snapshotter // the snapshot-job goroutine, beside the persister
	stop     chan struct{}
	done     chan struct{}
	ctl      chan ctlReq
	health   chan peerHealth
	stopOnce sync.Once
	downOnce sync.Once

	// record, nil in production, sees every step input as it is applied:
	// the live half of record → replay (sim_test.go).
	record func(now time.Time, in any)
}

// ctlReq is one Inspect call: the closure and its completion signal.
type ctlReq struct {
	f    func(*Replica)
	done chan struct{}
}

// Step inputs that carry nothing but their time, as record sees them.
type (
	tickInput  struct{}
	burstInput struct{}
)

// burstDrainMax bounds how many queued envelopes one loop iteration may
// consume before re-checking timers and control channels.
const burstDrainMax = 256

func (r *Replica) initDriver() {
	r.stop, r.done = make(chan struct{}), make(chan struct{})
	r.ctl, r.health = make(chan ctlReq, 16), make(chan peerHealth, 64)
	if hr, ok := r.tr.(transport.HealthReporter); ok {
		// Feed socket-level peer health into the loop; leader election
		// then reacts to real connection death (§3.6 leader switches),
		// not just missing heartbeats. Non-blocking: a stalled replica
		// must never back-pressure transport goroutines.
		hr.SetHealth(func(peer wire.NodeID, up bool) {
			select {
			case r.health <- peerHealth{peer: peer, up: up}:
			default:
			}
		})
	}
}

// Start launches the event loop, the persister and the snapshotter when
// the store stages records, and the parallel read pool (readpool.go)
// when the process has more than one processor — on one, handing reads
// off gains nothing, and reads execute on their views inline, as under
// the simulator.
func (r *Replica) Start() {
	if r.flusher != nil {
		r.snaps = newSnapshotter(r.cfg.Store)
		r.persist = newPersister(r.flusher, r.tr, func(err error) {
			// Off the loop: touch no loop-confined state — not even the
			// role that logf would format.
			if r.cfg.Logger != nil {
				r.cfg.Logger.Printf("replica %v [persister]: FATAL: persist flush: %v", r.cfg.ID, err)
			}
			r.stopOnce.Do(func() { close(r.stop) })
		})
	}
	if runtime.GOMAXPROCS(0) > 1 {
		r.readPool = newReadPool(r.tr, r.cfg.ID, runtime.GOMAXPROCS(0))
		r.readPool.RegisterMetrics(r.reg)
	}
	go r.run()
}

// Stop terminates the event loop, the persister, and the transport
// endpoint. Staged records that were never flushed are dropped — a
// deliberate crash model: an acknowledged write is durable on a quorum,
// never on the goodwill of one replica's shutdown path.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
	r.downOnce.Do(func() {
		if r.persist != nil {
			r.persist.stop()
			r.snaps.stop()
		}
		if r.readPool != nil {
			// Only the (now stopped) event loop dispatches, and workers
			// reply through the transport — join them before Close.
			r.readPool.stop()
		}
		r.tr.Close()
	})
}

// Inspect runs f on the replica's event loop and waits for it; tests and
// failure injectors use it to observe or perturb internal state safely.
func (r *Replica) Inspect(f func(r *Replica)) bool {
	c := ctlReq{f: f, done: make(chan struct{})}
	select {
	case r.ctl <- c:
	case <-r.done:
		return false
	}
	select {
	case <-c.done:
		return true
	case <-r.done:
		return false
	}
}

// run is the event loop: all protocol state is confined to this
// goroutine, and every input reaches it through one step function.
func (r *Replica) run() {
	defer close(r.done)
	var persisted <-chan struct{}
	var snapped <-chan snapDone
	if r.persist != nil {
		persisted, snapped = r.persist.persisted, r.snaps.done
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var armed time.Time // the deadline the timer is set for; zero once it fired
	r.tick(time.Now())
	for !r.failed {
		// Whatever the previous iteration staged or deferred becomes one
		// persister job before the loop blocks again.
		if job, ok := r.endBurst(); ok {
			select { // the persister never waits on the loop: no deadlock
			case r.persist.jobs <- job:
			case <-r.stop:
				return
			}
		}
		if job, ok := r.takeSnapshotJob(); ok {
			r.snaps.jobs <- job // one job at a time: never blocks
		}
		r.publishHealth()
		if d := r.deadline(); !d.Equal(armed) {
			// A fire already queued for an older deadline just costs one
			// early tick, which does nothing.
			armed = d
			timer.Reset(time.Until(d))
		}
		select {
		case <-r.stop:
			return
		case c := <-r.ctl:
			r.control(time.Now(), c.f)
			close(c.done)
		case <-persisted:
			r.durable(time.Now(), int(r.persist.woke.Swap(0)))
		case d := <-snapped:
			r.snapshotted(time.Now(), d)
		case env, ok := <-r.tr.Recv():
			if !ok {
				return
			}
			r.deliver(time.Now(), env)
			// Opportunistically drain the burst that arrived with this
			// envelope before selecting again: the batch is the natural
			// coalescing window for read confirms — and for the group
			// commit — and it keeps a loaded replica from interleaving
			// timer work between every message.
			for i := 0; i < burstDrainMax && !r.failed; i++ {
				select {
				case env, ok = <-r.tr.Recv():
					if !ok {
						return
					}
					r.deliver(time.Now(), env)
					continue
				default:
				}
				break
			}
		case ph := <-r.health:
			r.onPeerHealth(time.Now(), ph)
		case <-timer.C:
			armed = time.Time{}
			r.tick(time.Now())
		}
	}
}

// wallClock is the real time, for execLat and an inline snapshot's
// snapWriteLat alone: those histograms time work inside one step, and no
// protocol decision reads this.
func wallClock() time.Time { return time.Now() }

// snapshotter runs a replica's snapshot jobs (snapJob), one at a time,
// on a goroutine beside the persister: never inside Flush, which every
// vote waits on, so a large state's encode, write and syncs hold back
// no vote. Each completion goes back to the event loop as a step input.
type snapshotter struct {
	st     storage.Store
	jobs   chan *snapJob
	done   chan snapDone
	quit   chan struct{}
	exited chan struct{}
}

func newSnapshotter(st storage.Store) *snapshotter {
	s := &snapshotter{
		st:     st,
		jobs:   make(chan *snapJob, 1),
		done:   make(chan snapDone, 1),
		quit:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	go s.run()
	return s
}

func (s *snapshotter) run() {
	defer close(s.exited)
	for {
		select {
		case <-s.quit:
			return
		case j := <-s.jobs:
			start := time.Now()
			err := j.write(s.st)
			s.done <- snapDone{job: j, err: err, took: time.Since(start)}
		}
	}
}

// stop ends the goroutine once any job in progress is written, so the
// store is not closed under it. Replica.Stop calls it once.
func (s *snapshotter) stop() {
	close(s.quit)
	<-s.exited
}
