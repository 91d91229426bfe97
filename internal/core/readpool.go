package core

import (
	"sync"
	"sync/atomic"

	"gridrep/internal/metrics"
	"gridrep/internal/service"
	"gridrep/internal/transport"
	"gridrep/internal/wire"
)

// readPool executes confirmed X-Paxos reads concurrently, off the event
// loop. A read reaches the pool only after its §3.4 protocol work is
// done — majority confirms counted, commit barrier satisfied — and with
// the view of the state at the commit point (reads.go readState): a
// service.ReadView pinned before the speculative work still in flight,
// or pinned at dispatch when none is. Workers execute against that
// immutable view and fan the reply out directly through the transport
// (transports are safe for concurrent senders; the persister relies on
// the same contract), so neither the execution nor the reply serializes
// through the event loop. Writes are untouched: they stay strictly
// ordered on the loop.
type readPool struct {
	tr      transport.Transport
	local   wire.NodeID
	jobs    chan readJob
	wg      sync.WaitGroup
	workers int

	inFlight atomic.Int64 // dispatched, not yet replied
}

// readJob is one pool-bound read: the pinned view plus the request the
// reply answers.
type readJob struct {
	view service.ReadView
	req  wire.Request
}

// readPoolQueue bounds the dispatch queue. A full queue is not an
// error: tryDispatch refuses and the event loop executes the read
// inline, the pre-parallelism behavior.
const readPoolQueue = 1024

// newReadPool starts workers goroutines draining the job queue.
func newReadPool(tr transport.Transport, local wire.NodeID, workers int) *readPool {
	p := &readPool{
		tr:      tr,
		local:   local,
		jobs:    make(chan readJob, readPoolQueue),
		workers: workers,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// RegisterMetrics implements metrics.Instrumented: the pool's gauges, in
// the registry of the replica that starts it.
func (p *readPool) RegisterMetrics(reg *metrics.Registry) {
	reg.RegisterGaugeFunc("gridrep_read_pool_workers",
		"goroutines executing X-Paxos reads in parallel",
		func() int64 { return int64(p.workers) })
	reg.RegisterGaugeFunc("gridrep_read_pool_in_flight",
		"parallel reads dispatched and not yet replied",
		func() int64 { return p.inFlight.Load() })
	reg.RegisterGaugeFunc("gridrep_read_pool_queue_depth",
		"parallel reads queued for a worker",
		func() int64 { return int64(len(p.jobs)) })
}

// tryDispatch hands a read to the pool without ever blocking the event
// loop; false means the queue is full and the caller must execute
// inline.
func (p *readPool) tryDispatch(j readJob) bool {
	p.inFlight.Add(1)
	select {
	case p.jobs <- j:
		return true
	default:
		p.inFlight.Add(-1)
		return false
	}
}

// stop drains and joins the workers. Only the event loop dispatches, so
// callers must stop the loop first (Replica.Stop does); and the workers
// send replies through the transport, so stop must precede the
// transport's Close.
func (p *readPool) stop() {
	close(p.jobs)
	p.wg.Wait()
}

func (p *readPool) worker() {
	defer p.wg.Done()
	for j := range p.jobs {
		p.tr.Send(j.run(p.local))
		p.inFlight.Add(-1)
	}
}

// run executes the read on its view and returns the reply, sent as from
// local: by a worker, or by the event loop for an inline read.
func (j readJob) run(local wire.NodeID) *wire.Envelope {
	rep := wire.Reply{Client: j.req.Client, Seq: j.req.Seq, Status: wire.StatusOK, Leader: local}
	res, err := j.view.ReadExecute(j.req.Op)
	if err != nil {
		rep.Status, rep.Err = wire.StatusError, err.Error()
	} else {
		rep.Result = res
	}
	return &wire.Envelope{To: j.req.Client, Msg: &wire.ReplyMsg{Rep: rep}}
}
