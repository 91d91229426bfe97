package core

import (
	"gridrep/internal/storage"
	"gridrep/internal/transport"
	"gridrep/internal/wire"
	"sync/atomic"
)

// The durability pipeline (DESIGN.md §9).
//
// When the replica's Store implements storage.Flusher, no step waits on
// disk: acceptor mutations stage into the store's group-commit buffer,
// and every burst of steps ends with endBurst handing its driver one job
// — the burst's deferred protocol sends — while the core keeps the
// burst's on-loop completion closures. The driver makes the job durable
// and performs its sends, then reports how many jobs with closures are
// done; the core runs their closures (durable). The wall-clock driver's
// persister below drains all queued jobs, calls Flush once for the lot
// (group commit), performs the sends itself (transports are safe for
// concurrent senders) and counts the jobs off. The ordering contract:
//
//   - A message that claims durable acceptor state — a Promise, an
//     Accepted — is deferred via sendDurable and leaves only after the
//     Flush covering the staged records returns.
//   - An X-Paxos Confirm claims only the promise behind its ballot: it
//     is deferred the same way while that promise is staged, and sent
//     at once when it equals promDurable, the highest promise a Flush
//     has covered. endBurst learns that promise through a deferLoop
//     closure registered in each burst that changed it; the loaded
//     promise is durable from boot. The confirm's MaxAcc stamp needs
//     no gate: it only ever raises a read's barrier.
//   - The leader's own phase-1b/2b votes count toward quorum only via
//     deferred closures (deferLoop), so commit — and therefore the client
//     reply — implies a quorum of durable votes. Backups' votes arrive
//     already durable, so a commit can complete before the leader's own
//     fsync does: the leader's disk overlaps the network round trip.
//     Each closure re-checks that its wave is still the one in flight
//     before counting the vote, so a rollback or an early backup-quorum
//     commit leaves the stale closure inert.
//   - Everything else (Prepare/Accept broadcasts, Commit notifications,
//     heartbeats, catch-up traffic, client replies) claims nothing about
//     local durable state and is sent immediately.
//
// Jobs from one replica are flushed and dispatched strictly in submission
// order, preserving the per-link FIFO the protocol's retransmission logic
// assumes. A Flush failure poisons the store; the persister then
// fail-stops the replica, same as an inline storage failure would.

// persistJob is one burst's deferred sends, to leave once the records
// staged so far are durable. wake marks a job the core holds closures
// for: only those are counted off and wake the loop, so a backup, whose
// only closure notes a new promise durable (endBurst), is woken by its
// own flushes about once per term.
type persistJob struct {
	envs []*wire.Envelope
	wake bool
}

// persister owns a replica's WAL flushes and post-durability sends.
type persister struct {
	fl        storage.Flusher
	tr        transport.Transport
	jobs      chan persistJob
	persisted chan struct{} // signalled, never blocking, as wake jobs complete
	woke      atomic.Uint64 // wake jobs durable and sent, not yet reported
	fail      func(error)   // fatal hook (safe off-loop)
	quit      chan struct{}
	done      chan struct{}
}

func newPersister(fl storage.Flusher, tr transport.Transport, fail func(error)) *persister {
	p := &persister{
		fl:        fl,
		tr:        tr,
		jobs:      make(chan persistJob, 128),
		persisted: make(chan struct{}, 1),
		fail:      fail,
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	go p.run()
	return p
}

// stop terminates the persister without a final flush: staged records die
// with the process, the same crash the protocol already tolerates (an
// acknowledged write is durable on a quorum, not on any one replica).
// Replica.Stop calls it once.
func (p *persister) stop() {
	close(p.quit)
	<-p.done
}

func (p *persister) run() {
	defer close(p.done)
	var batch []persistJob
	for {
		batch = batch[:0]
		select {
		case <-p.quit:
			return
		case j := <-p.jobs:
			batch = append(batch, j)
		}
		// Coalesce every job already queued: one Flush covers them all.
	drain:
		for {
			select {
			case j := <-p.jobs:
				batch = append(batch, j)
			default:
				break drain
			}
		}
		if err := p.fl.Flush(); err != nil {
			p.fail(err)
			return
		}
		var wake uint64
		for _, j := range batch {
			for _, env := range j.envs {
				p.tr.Send(env)
			}
			if j.wake {
				wake++
			}
		}
		if wake > 0 {
			p.woke.Add(wake)
			select {
			case p.persisted <- struct{}{}:
			default:
			}
		}
	}
}
