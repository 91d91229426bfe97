package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"gridrep"
	"gridrep/internal/client"
	"gridrep/internal/netem"
	"gridrep/internal/service"
	"gridrep/internal/storage"
	"gridrep/internal/wire"
)

// Operation deadlines: an operation that returns an error or takes longer
// than its workload's deadline counts as failed.
const (
	lanDeadline = 2 * time.Second
	wanDeadline = 10 * time.Second
)

// Workload names. They are cited by BENCHMARK.json, README.md and later
// issues; do not rename them.
const (
	wlDurableWrite = "tcp-durable-write"
	wlMemMixed     = "tcp-mem-mixed"
	wlSchedTxn     = "wan-sched-txn"
	wlFailover     = "lan-failover"
)

// workloadNames is the order in which a full run executes the workloads.
var workloadNames = []string{wlDurableWrite, wlMemMixed, wlSchedTxn, wlFailover}

// Traffic constants of the single workloads.
const (
	durableSessions = 16    // logical sessions on the one ClientMux
	failoverRate    = 400.0 // open-loop ops per second
	failoverPeriod  = 2500 * time.Millisecond
	failoverDown    = time.Second
	failoverFirst   = 1500 * time.Millisecond // first crash, into the window
	failoverRetry   = 10 * time.Millisecond   // client rebroadcast base
)

// loadClients is the sizing rule's C: at most one connection set per
// processor, four at most.
func loadClients() int {
	c := runtime.NumCPU()
	if c > 4 {
		c = 4
	}
	return c
}

// shapeOf describes a workload's operations, state and network to the
// direct layer calls.
func shapeOf(workload string) (shape, error) {
	switch workload {
	case wlDurableWrite, wlMemMixed:
		return shape{keys: kvKeys, gateway: workload == wlDurableWrite,
			writeOp: gridrep.KVPut(kvKey(7), kvValue(7, 1)), readOp: gridrep.KVGet(kvKey(7))}, nil
	case wlSchedTxn:
		return shape{sched: true, profile: netem.WAN(0), hasNetem: true,
			writeOp: gridrep.SchedSubmit("c0-j1", 2), readOp: gridrep.SchedStatus()}, nil
	case wlFailover:
		return shape{keys: counterKeys, profile: netem.Sysnet(), hasNetem: true,
			writeOp: gridrep.KVAdd(kvKey(7), 1), readOp: gridrep.KVGet(kvKey(7))}, nil
	}
	return shape{}, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
}

// mixedClients is tcp-mem-mixed's client count: the sizing rule's C, but
// at least one writer and one reader.
func mixedClients() int {
	if c := loadClients(); c > 2 {
		return c
	}
	return 2
}

// registerSpec is session i's stream on the register workloads. Every key
// has one writer. On tcp-durable-write each of the n sessions writes its
// own share of the keys and reads one of them back every sixteenth
// operation. On tcp-mem-mixed the clients take fixed roles, writer,
// reader, writer, ...: a writer only puts, on its share of the keys, and a
// reader only gets, over all of them. Mixing both in every client, at the
// issue's 50/50, puts the read median on a cliff: 45 % of reads find the
// leader idle (≈0.1 ms), 55 % wait for the other client's write wave
// (≈1.5 ms), and the median swings between the two from run to run. With
// roles a reader always runs beside a busy writer, however fast either
// becomes.
func registerSpec(durable bool, i, n int) streamSpec {
	if durable {
		per := kvKeys / n
		return streamSpec{block: 16, reads: 1, keyLo: i * per, keyN: per}
	}
	if i%2 == 1 {
		return streamSpec{block: 1, reads: 1, keyN: kvKeys}
	}
	writers := (n + 1) / 2
	per := kvKeys / writers
	return streamSpec{block: 1, keyLo: i / 2 * per, keyN: per}
}

// solo returns the one client of a traced run's single-client phases: the
// first session, which on every workload but tcp-mem-mixed issues the
// whole mix. There it is a pure writer, so from its first solo use on it
// both reads and writes its own keys (it stays their only writer).
func (r *rig) solo() session {
	if s, ok := r.sessions[0].(*registerSession); ok && r.p.workload == wlMemMixed && s.stream.spec.reads == 0 {
		spec := s.stream.spec
		spec.block, spec.reads = 2, 1
		s.stream = newOpStream(r.p.seed, len(r.sessions), spec)
	}
	return r.sessions[0]
}

// params is what one run was asked to do.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

// rig is a workload set up and ready for load.
type rig struct {
	p        params
	dep      deployment
	sessions []session
	specs    []streamSpec // what the op-stream hash covers
	shape    shape
	deadline time.Duration
	epoch    time.Time
	walDir   string

	// Traced run only.
	rec  *recorder
	nett *netTracer

	// In-process workloads only.
	cluster *clusterDeploy

	// lan-failover only.
	counters []*counterSession
	pacing   *opStream
	mu       sync.Mutex // guards crashes while the injector runs
	crashes  []*crash

	bootMS   float64
	preloadS float64
	setupS   float64
}

func (r *rig) close() {
	r.dep.close()
	if r.walDir != "" {
		os.RemoveAll(r.walDir)
	}
}

func (r *rig) base(i int, cli *client.Client, spec streamSpec) sessionBase {
	return sessionBase{id: i, cli: cli, stream: newOpStream(r.p.seed, i, spec), epoch: r.epoch}
}

// setup boots the workload's deployment, waits for a leader, attaches the
// load generators and preloads the state. processStart is when this
// process began; setup_s runs from there.
func setup(p params, processStart time.Time) (*rig, error) {
	sh, err := shapeOf(p.workload)
	if err != nil {
		return nil, err
	}
	r := &rig{p: p, shape: sh, epoch: processStart, deadline: lanDeadline}
	if p.trace {
		r.rec = &recorder{epoch: r.epoch}
	}
	switch p.workload {
	case wlDurableWrite, wlMemMixed:
		err = r.setupTCP()
	case wlSchedTxn:
		err = r.setupSched()
	case wlFailover:
		err = r.setupFailover()
	}
	if err != nil {
		if r.dep != nil {
			r.close()
		}
		return nil, err
	}
	r.setupS = time.Since(processStart).Seconds()
	return r, nil
}

func (r *rig) setupTCP() error {
	durable := r.p.workload == wlDurableWrite
	opts := tcpOptions{gateway: durable, mux: durable}
	n := mixedClients()
	if durable {
		n = durableSessions
		dir, err := tempWALDir(r.p.outDir, r.p.workload)
		if err != nil {
			return err
		}
		r.walDir, opts.walDir = dir, dir
	}
	if r.rec != nil {
		opts.wrap = func(s service.Service) service.Service { return &tracedKV{s.(*service.KV), r.rec} }
	}
	t0 := time.Now()
	dep, err := startTCP(opts)
	if err != nil {
		return err
	}
	r.dep = dep
	if err := waitLeading(dep, 10*time.Second); err != nil {
		return err
	}
	r.bootMS = float64(time.Since(t0)) / 1e6

	for i := 0; i < n; i++ {
		cli, err := dep.newClient(i + 1)
		if err != nil {
			return err
		}
		spec := registerSpec(durable, i, n)
		r.sessions = append(r.sessions, &registerSession{sessionBase: r.base(i, cli, spec), vers: map[int]int64{}})
		r.specs = append(r.specs, spec)
	}
	t1 := time.Now()
	err = dep.preload()
	r.preloadS = time.Since(t1).Seconds()
	return err
}

func (r *rig) setupSched() error {
	profile := r.shape.profile
	opts := clusterOptions{profile: profile, seed: r.p.seed, deadline: wanDeadline,
		service: func() service.Service { return service.NewSched() }}
	if r.rec != nil {
		r.nett = &netTracer{rec: r.rec, model: profile.NewModel(r.p.seed)}
		opts.tracer = r.nett.observe
		opts.service = func() service.Service { return &tracedSched{service.NewSched(), r.rec} }
	}
	r.deadline = wanDeadline
	t0 := time.Now()
	dep, err := startCluster(opts)
	if err != nil {
		return err
	}
	r.dep, r.cluster = dep, dep
	leader, err := dep.cl.WaitForLeader(15 * time.Second)
	if err != nil {
		return err
	}
	// The profile puts replica 0 at the leader's site; the §3.4 model
	// numbers only hold for that placement.
	if leader != 0 {
		return fmt.Errorf("wan profile expects replica 0 to lead, replica %v does", leader)
	}
	r.bootMS = float64(time.Since(t0)) / 1e6
	t1 := time.Now()
	for i := 0; i < loadClients(); i++ {
		cli, err := dep.newClient(i + 1)
		if err != nil {
			return err
		}
		spec := streamSpec{block: 10, reads: 5, txns: 2, keyN: 1}
		s := &schedSession{sessionBase: r.base(i, cli, spec)}
		s.seq++ // the warm-up read below
		if _, err := cli.Read(gridrep.SchedStatus()); err != nil {
			return fmt.Errorf("warm-up read: %w", err)
		}
		r.sessions = append(r.sessions, s)
		r.specs = append(r.specs, spec)
	}
	r.preloadS = time.Since(t1).Seconds()
	return nil
}

func (r *rig) setupFailover() error {
	profile := r.shape.profile
	dir, err := tempWALDir(r.p.outDir, r.p.workload)
	if err != nil {
		return err
	}
	r.walDir = dir
	opts := clusterOptions{profile: profile, seed: r.p.seed, walDir: dir, deadline: lanDeadline,
		retryEvery: failoverRetry, service: service.KVFactory}
	if r.rec != nil {
		r.nett = &netTracer{rec: r.rec, model: profile.NewModel(r.p.seed)}
		opts.tracer = r.nett.observe
		opts.service = func() service.Service { return &tracedKV{service.NewKV(), r.rec} }
		opts.wrapStore = func(f *storage.File) storage.Store { return &tracedStore{f, r.rec} }
	}
	t0 := time.Now()
	dep, err := startCluster(opts)
	if err != nil {
		return err
	}
	r.dep, r.cluster = dep, dep
	if _, err := dep.cl.WaitForLeader(10 * time.Second); err != nil {
		return err
	}
	r.bootMS = float64(time.Since(t0)) / 1e6
	t1 := time.Now()
	// Stream 0 is the pacing goroutine's; each client also has one of its
	// own for the traced run's closed loop.
	spec := streamSpec{block: 2, reads: 1, keyN: counterKeys}
	r.pacing = newOpStream(r.p.seed, 0, spec)
	r.specs = []streamSpec{spec}
	for i := 0; i < loadClients(); i++ {
		cli, err := dep.newClient(i + 1)
		if err != nil {
			return err
		}
		s := &counterSession{r.base(i+1, cli, spec)}
		s.seq++ // the warm-up read below
		if _, err := cli.Read(gridrep.KVGet(kvKey(0))); err != nil {
			return fmt.Errorf("warm-up read: %w", err)
		}
		r.counters = append(r.counters, s)
		r.sessions = append(r.sessions, s)
	}
	r.preloadS = time.Since(t1).Seconds()
	return nil
}

// runClosed drives the sessions in closed loops for d and returns every
// operation they issued.
func runClosed(sessions []session, d time.Duration) []opRecord {
	per := make([][]opRecord, len(sessions))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s session) {
			defer wg.Done()
			for time.Since(t0) < d {
				per[i] = append(per[i], s.step())
			}
		}(i, s)
	}
	wg.Wait()
	var all []opRecord
	for _, recs := range per {
		all = append(all, recs...)
	}
	return all
}

// verify checks the history against the state the replicas ended in.
// The load has stopped; it settles the replicas first.
func (r *rig) verify(ops []opRecord, v *violations) {
	if err := settle(r.dep, 15*time.Second); err != nil {
		v.addf("%v", err)
		return
	}
	var finalStatus []string
	if r.p.workload == wlSchedTxn {
		// The scheduler's final queue, through the public read path.
		cli, err := r.dep.newClient(100)
		if err == nil {
			var res []byte
			if res, err = cli.Read(gridrep.SchedStatus()); err == nil {
				finalStatus = parseStatus(res)
			}
		}
		if err != nil {
			v.addf("final status read: %v", err)
			return
		}
	}
	snaps, err := r.dep.snapshots()
	if err != nil {
		v.addf("snapshots: %v", err)
		return
	}
	checkSnapshots(snaps, v)
	switch r.p.workload {
	case wlSchedTxn:
		checkSched(ops, finalStatus, v)
	case wlFailover:
		final, err := decodeKV(snaps[0], func(_ int, val []byte) (int64, string) {
			if len(val) != 8 {
				return 0, fmt.Sprintf("value of %d bytes", len(val))
			}
			return int64(binary.LittleEndian.Uint64(val)), ""
		})
		if err != nil {
			v.addf("final state: %v", err)
			return
		}
		checkCounters(ops, final, v)
	default:
		final, err := decodeKV(snaps[0], kvVersion)
		if err != nil {
			v.addf("final state: %v", err)
			return
		}
		if len(final) != kvKeys {
			v.addf("final state holds %d keys, want %d", len(final), kvKeys)
		}
		checkRegisters(ops, final, v)
	}
}

// decodeKV parses a KV snapshot (count, then key/value pairs) into key
// index → parsed value. Keys are "k%05d".
func decodeKV(snap []byte, parse func(key int, val []byte) (int64, string)) (map[int]int64, error) {
	dec := wire.NewDecoder(snap)
	n := dec.SliceLen()
	out := make(map[int]int64, n)
	for i := 0; i < n; i++ {
		k := dec.String()
		val := dec.Bytes8()
		if dec.Err() != nil {
			return nil, dec.Err()
		}
		var key int
		if _, err := fmt.Sscanf(k, "k%05d", &key); err != nil {
			return nil, fmt.Errorf("unexpected key %q", k)
		}
		ver, bad := parse(key, val)
		if bad != "" {
			return nil, fmt.Errorf("key %q: %s", k, bad)
		}
		out[key] = ver
	}
	return out, dec.Done()
}
