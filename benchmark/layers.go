package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"gridrep/internal/gateway"
	"gridrep/internal/metrics"
	"gridrep/internal/netem"
	"gridrep/internal/paxos"
	"gridrep/internal/service"
	"gridrep/internal/storage"
	"gridrep/internal/transport"
	"gridrep/internal/wire"
)

// Direct calls: each layer's public functions timed on their own, with
// inputs shaped like the workload's (entry shape, state size). Every
// figure is the median of layerBatches timed batches.
const (
	layerBatches = 5
	batchTarget  = 8 * time.Millisecond
)

// nsPerOp sizes a batch of calls to about batchTarget, times layerBatches
// of them and returns the median nanoseconds per call.
func nsPerOp(call func()) float64 {
	batch := func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			call()
		}
		return time.Since(t0)
	}
	n := 1
	for n < 1<<20 && batch(n) < batchTarget {
		n *= 4
	}
	return medianOf(layerBatches, func() float64 { return float64(batch(n)) / float64(n) })
}

func medianOf(batches int, sample func() float64) float64 {
	vals := make([]float64, batches)
	for i := range vals {
		vals[i] = sample()
	}
	sort.Float64s(vals)
	return quantile(vals, 0.5)
}

// shape is what a workload's operations look like to the layers.
type shape struct {
	sched    bool          // scheduler service (replay mode) rather than KV (delta mode)
	keys     int           // KV state: keys × kvValueSize bytes
	writeOp  []byte        // a representative write
	readOp   []byte        // a representative read
	profile  netem.Profile // emulated network; zero Name for the TCP workloads
	hasNetem bool
	gateway  bool
}

// loadedKV returns a KV holding the workload's state.
func loadedKV(keys int) *service.KV {
	kv := service.NewKV()
	for k := 0; k < keys; k++ {
		if _, err := kv.Execute(service.KVPut(kvKey(k), kvValue(k, 0))); err != nil {
			panic(err) // a well-formed put cannot fail
		}
	}
	return kv
}

// acceptFor builds the Accept a leader sends for one write of the
// workload: the request, the state the state mode attaches (a KV delta,
// or the scheduler's replay aux) and the reply.
func acceptFor(sh shape) *wire.Accept {
	req := wire.Request{Client: wire.ClientIDBase + 1, Seq: 7, Kind: wire.KindWrite, Op: sh.writeOp}
	prop := wire.Proposal{Reqs: []wire.Request{req}}
	if sh.sched {
		s := service.NewSched()
		res, aux, err := s.ExecuteCapture(sh.writeOp)
		if err != nil {
			panic(err)
		}
		prop.Aux, prop.Results = [][]byte{aux}, [][]byte{res}
	} else {
		res, delta, err := loadedKV(16).ExecuteDelta(sh.writeOp)
		if err != nil {
			panic(err)
		}
		prop.State, prop.HasState, prop.Kind = delta, true, wire.StateDelta
		prop.Results = [][]byte{res}
	}
	bal := wire.Ballot{Round: 3, Node: 0}
	return &wire.Accept{Bal: bal, Commit: 41, Entries: []wire.Entry{{Instance: 42, Bal: bal, Prop: prop}}}
}

// layerCalls runs every direct call for a workload and returns the
// D-sourced per-layer metrics. scratch is a directory for temporary WALs.
func layerCalls(sh shape, scratch string) (map[string]float64, error) {
	m := map[string]float64{}

	// wire: encode and decode of the workload's Accept, and of one
	// carrying 1 MB of full state.
	env := &wire.Envelope{From: 0, To: 1, Msg: acceptFor(sh)}
	var buf []byte
	m["wire.encode_accept_ns"] = nsPerOp(func() {
		buf = wire.EncodeEnvelope(buf[:0], env)
	})
	m["wire.decode_accept_ns"] = nsPerOp(func() {
		if _, err := wire.DecodeEnvelopeOwned(buf); err != nil {
			panic(err)
		}
	})
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	const allocRuns = 2000
	for i := 0; i < allocRuns; i++ {
		buf = wire.EncodeEnvelope(buf[:0], env)
		if _, err := wire.DecodeEnvelopeOwned(buf); err != nil {
			panic(err)
		}
	}
	runtime.ReadMemStats(&ms)
	m["wire.allocs_per_roundtrip"] = float64(ms.Mallocs-before) / allocRuns

	big := acceptFor(sh)
	big.Entries[0].Prop.State = make([]byte, 1<<20)
	big.Entries[0].Prop.HasState, big.Entries[0].Prop.Kind = true, wire.StateFull
	bigEnv := &wire.Envelope{From: 0, To: 1, Msg: big}
	var bigBuf []byte
	m["wire.encode_state_us_1mb"] = nsPerOp(func() {
		bigBuf = wire.EncodeEnvelope(bigBuf[:0], bigEnv)
	}) / 1e3

	// transport: a request/reply ping-pong between two TCP endpoints on
	// loopback, and the in-process fabric's delivery time above the delay
	// its model injected.
	rtt, err := tcpxRTT(sh)
	if err != nil {
		return nil, err
	}
	m["transport.tcpx_rtt_us"] = rtt / 1e3
	m["transport.chanx_overhead_us"] = chanxOverhead() / 1e3

	// netem: the decision made per message, and §3.4's model of the
	// workload's network.
	model := netem.Sysnet().NewModel(1)
	if sh.hasNetem {
		model = sh.profile.NewModel(1)
		m["netem.model_read_ms"], m["netem.model_write_ms"] = modelLatency(model)
	}
	m["netem.decide_ns"] = nsPerOp(func() {
		model.Decide(wire.ClientIDBase+1, 0)
	})

	// storage: stage + flush of one accepted entry (the fsync a durable
	// write waits for), and replay of a 10 000-record WAL.
	entry := acceptFor(sh).Entries[0]
	putFlush, err := storagePutFlush(scratch, entry)
	if err != nil {
		return nil, err
	}
	m["storage.put_flush_us"] = putFlush / 1e3
	load, err := storageLoad(scratch, entry)
	if err != nil {
		return nil, err
	}
	m["storage.load_ms"] = load / 1e6

	// paxos: the acceptor's phase-2b step over in-memory storage.
	acc, err := paxos.NewAcceptor(storage.NewMem())
	if err != nil {
		return nil, err
	}
	inst := uint64(0)
	m["paxos.on_accept_ns"] = nsPerOp(func() {
		inst++
		e := entry
		e.Instance = inst
		if _, err := acc.OnAccept(&wire.Accept{Bal: e.Bal, Entries: []wire.Entry{e}, Commit: inst - 1}); err != nil {
			panic(err)
		}
	})

	// service: the workload's own operations at its state size.
	if sh.sched {
		schedCalls(sh, m)
	} else {
		kvCalls(sh, m)
	}

	if sh.gateway {
		m["gateway.admit_ns"] = gatewayAdmit(sh)
	}

	h := metrics.NewHistogram(metrics.UnitNanoseconds)
	v := uint64(0)
	m["metrics.observe_ns"] = nsPerOp(func() {
		v += 1 << 10 // walk the buckets
		h.Observe(v)
	})
	return m, nil
}

func kvCalls(sh shape, m map[string]float64) {
	kv := loadedKV(sh.keys)
	m["service.kv_put_ns"] = nsPerOp(func() {
		if _, _, err := kv.ExecuteDelta(sh.writeOp); err != nil {
			panic(err)
		}
	})
	// A write right after a read view was pinned pays the copy-on-write
	// clone of the whole map.
	m["service.kv_put_pinned_us"] = nsPerOp(func() {
		kv.ReadView()
		if _, _, err := kv.ExecuteDelta(sh.writeOp); err != nil {
			panic(err)
		}
	}) / 1e3
	view, _ := kv.ReadView()
	m["service.kv_get_ns"] = nsPerOp(func() {
		if _, err := view.ReadExecute(sh.readOp); err != nil {
			panic(err)
		}
	})
	var snap []byte
	m["service.kv_snapshot_ms"] = nsPerOp(func() {
		snap = kv.Snapshot()
	}) / 1e6
	m["service.kv_restore_ms"] = nsPerOp(func() {
		if err := service.NewKV().Restore(snap); err != nil {
			panic(err)
		}
	}) / 1e6
	_, delta, _ := kv.ExecuteDelta(sh.writeOp)
	m["service.kv_delta_bytes"] = float64(len(delta))
}

func schedCalls(sh shape, m map[string]float64) {
	// A queue of the size the workload keeps (a few jobs per client).
	s := service.NewSched()
	for i := 0; i < 8; i++ {
		if _, err := s.Execute(service.SchedSubmit(fmt.Sprintf("seed-%d", i), int64(i%4))); err != nil {
			panic(err)
		}
	}
	job := 0
	m["service.sched_execute_ns"] = nsPerOp(func() {
		// One job's whole life — submitted above every queued
		// priority, so the dispatch picks it — keeps the queue's size.
		job++
		id := fmt.Sprintf("j%d", job)
		for _, op := range [][]byte{service.SchedSubmit(id, 10), service.SchedDispatch(), service.SchedComplete(id)} {
			if _, _, err := s.ExecuteCapture(op); err != nil {
				panic(err)
			}
		}
	}) / 3
	m["service.sched_snapshot_us"] = nsPerOp(func() {
		s.Snapshot()
	}) / 1e3
}

// modelLatency is §3.4's latency model in critical-path form, from the
// model's mean one-way delays with E = 0: a write is client→leader, a
// round trip leader↔backup, leader→client (2M + E + 2m); a read waits for
// the later of the client's request reaching the leader and a backup's
// confirm reaching the leader, then leader→client (2M + max(E, m) on a
// symmetric network). The leader is replica 0, the backup replica 1.
func modelLatency(m *netem.Model) (readMS, writeMS float64) {
	cli, leader, backup := m.ClassOf(wire.ClientIDBase+1), m.ClassOf(0), m.ClassOf(1)
	ms := func(a, b netem.Class) float64 { return float64(m.MeanLatency(a, b)) / 1e6 }
	viaBackup := ms(cli, backup) + ms(backup, leader)
	read := ms(cli, leader)
	if viaBackup > read {
		read = viaBackup
	}
	read += ms(leader, cli)
	write := ms(cli, leader) + ms(leader, backup) + ms(backup, leader) + ms(leader, cli)
	return read, write
}

// tcpxRTT is the median round trip of a request and its reply between
// two TCP transport endpoints on loopback, in nanoseconds.
func tcpxRTT(sh shape) (float64, error) {
	peers, err := reservePorts()
	if err != nil {
		return 0, err
	}
	book := map[wire.NodeID]string{0: peers[0], 1: peers[1]}
	a, err := transport.ListenTCP(0, book)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := transport.ListenTCP(1, book)
	if err != nil {
		return 0, err
	}
	defer b.Close()
	go func() { // echo: every request gets its reply
		for env := range b.Recv() {
			if rm, ok := env.Msg.(*wire.RequestMsg); ok {
				b.Send(&wire.Envelope{To: 0, Msg: &wire.ReplyMsg{Rep: wire.Reply{Client: rm.Req.Client, Seq: rm.Req.Seq}}})
			}
		}
	}()
	seq := uint64(0)
	ping := func() error {
		seq++
		a.Send(&wire.Envelope{To: 1, Msg: &wire.RequestMsg{Req: wire.Request{Client: 0, Seq: seq, Kind: wire.KindWrite, Op: sh.writeOp}}})
		timeout := time.After(5 * time.Second)
		for {
			select {
			case env := <-a.Recv():
				if rm, ok := env.Msg.(*wire.ReplyMsg); ok && rm.Rep.Seq == seq {
					return nil
				}
			case <-timeout:
				return fmt.Errorf("tcpx ping-pong: no reply within 5s")
			}
		}
	}
	if err := ping(); err != nil { // first send dials
		return 0, err
	}
	var pingErr error
	rtt := nsPerOp(func() {
		if pingErr == nil {
			pingErr = ping()
		}
	})
	return rtt, pingErr
}

// chanxOverhead is the in-process fabric's median delivery time on the
// sysnet profile minus the model's mean injected delay, in nanoseconds:
// what encode, queueing, the delivery loop and decode add.
func chanxOverhead() float64 {
	model := netem.Sysnet().NewModel(1)
	net := transport.NewNetwork(model)
	defer net.Close()
	a, _ := net.Endpoint(0)
	b, _ := net.Endpoint(1)
	injected := float64(model.MeanLatency(netem.ClassReplica, netem.ClassReplica))
	observed := nsPerOp(func() {
		a.Send(&wire.Envelope{To: 1, Msg: &wire.Commit{Index: 1}})
		<-b.Recv()
	})
	return observed - injected
}

// storagePutFlush is the median time to stage one accepted entry and
// flush it (write + fdatasync) on a fresh buffered WAL, in nanoseconds.
func storagePutFlush(scratch string, entry wire.Entry) (float64, error) {
	path := filepath.Join(scratch, "layers-putflush.wal")
	f, err := storage.OpenFile(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer f.Close()
	f.SetBuffered(true)
	inst := uint64(0)
	var ioErr error
	step := func() {
		inst++
		e := entry
		e.Instance = inst
		if err := f.PutAccepted([]wire.Entry{e}, e.Bal); err != nil && ioErr == nil {
			ioErr = err
		}
		if err := f.Flush(); err != nil && ioErr == nil {
			ioErr = err
		}
	}
	step() // first flush preallocates
	ns := medianOf(layerBatches, func() float64 {
		const n = 4
		t0 := time.Now()
		for i := 0; i < n; i++ {
			step()
		}
		return float64(time.Since(t0)) / n
	})
	return ns, ioErr
}

// storageLoad is the median time to open and replay a WAL of 10 000
// accepted entries, in nanoseconds.
func storageLoad(scratch string, entry wire.Entry) (float64, error) {
	path := filepath.Join(scratch, "layers-load.wal")
	f, err := storage.OpenFile(path)
	if err != nil {
		return 0, err
	}
	f.Sync = false // building the log is not what is measured
	for inst := uint64(1); inst <= 10000; inst++ {
		e := entry
		e.Instance = inst
		if err := f.PutAccepted([]wire.Entry{e}, e.Bal); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	defer os.Remove(path)
	var loadErr error
	ns := medianOf(layerBatches, func() float64 {
		t0 := time.Now()
		g, err := storage.OpenFile(path)
		if err != nil {
			loadErr = err
			return 0
		}
		if _, err := g.Load(); err != nil {
			loadErr = err
		}
		d := time.Since(t0)
		g.Close()
		return float64(d)
	})
	return ns, loadErr
}

// stubEdge is the transport under a gateway in the admit call: it hands
// the gateway's inbound filter to the caller and swallows what is sent.
type stubEdge struct {
	inbound func(*wire.Envelope)
	recv    chan *wire.Envelope
}

func (s *stubEdge) Local() wire.NodeID              { return 0 }
func (s *stubEdge) Send(*wire.Envelope)             {}
func (s *stubEdge) Recv() <-chan *wire.Envelope     { return s.recv }
func (s *stubEdge) Close() error                    { return nil }
func (s *stubEdge) SetSink(fn func(*wire.Envelope)) { s.inbound = fn }

// gatewayAdmit is the median cost of admitting one fresh request at an
// active edge and clearing it with its reply, in nanoseconds.
func gatewayAdmit(sh shape) float64 {
	edge := &stubEdge{recv: make(chan *wire.Envelope)}
	gw := gateway.Wrap(edge, gateway.Config{})
	defer gw.Close()
	gw.SetSink(func(*wire.Envelope) {})
	cid := gateway.SessionID(0, 1)
	seq := uint64(0)
	pair := func() {
		seq++
		edge.inbound(&wire.Envelope{From: cid, To: 0, Msg: &wire.RequestMsg{Req: wire.Request{Client: cid, Seq: seq, Kind: wire.KindWrite, Op: sh.writeOp}}})
		gw.Send(&wire.Envelope{To: cid, Msg: &wire.ReplyMsg{Rep: wire.Reply{Client: cid, Seq: seq}}})
	}
	pair() // the first reply makes the edge active
	return nsPerOp(func() {
		pair()
	})
}
