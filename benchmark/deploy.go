package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"gridrep"
	"gridrep/internal/client"
	"gridrep/internal/cluster"
	"gridrep/internal/core"
	"gridrep/internal/metrics"
	"gridrep/internal/netem"
	"gridrep/internal/service"
	"gridrep/internal/storage"
	"gridrep/internal/wire"
)

const replicas = 3

// deployment is a running three-replica service the load generators
// talk to: three TCP servers on loopback, or an in-process cluster on the
// emulated network.
type deployment interface {
	// newClient attaches load generator n (numbered from 1).
	newClient(n int) (*client.Client, error)
	// registries returns the metrics registry of every running replica.
	registries() map[wire.NodeID]*metrics.Registry
	// healths returns the protocol position of every running replica.
	healths() []core.Health
	// snapshots returns every replica's service state. Call it once the
	// load has stopped and settle has returned; the TCP deployment shuts
	// its servers down to read their services safely.
	snapshots() ([][]byte, error)
	close()
}

// settle waits until every replica has applied the same, stable commit
// index: nothing is in flight and the replicas can be compared.
func settle(d deployment, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last uint64
	stable := 0
	for time.Now().Before(deadline) {
		hs := d.healths()
		same := len(hs) == replicas
		for _, h := range hs {
			if h.Applied != hs[0].Applied || h.CommitIndex != hs[0].CommitIndex || h.Applied != h.CommitIndex {
				same = false
			}
		}
		if same && hs[0].Applied == last {
			if stable++; stable >= 3 {
				return nil
			}
		} else {
			stable = 0
		}
		if same {
			last = hs[0].Applied
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("replicas did not settle within %v: %+v", timeout, d.healths())
}

// waitLeading waits until some replica reports the leading role.
func waitLeading(d deployment, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, h := range d.healths() {
			if h.Leading {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("no leader within %v", timeout)
}

// tcpDeploy is three gridrep.ListenAndServe replicas on 127.0.0.1.
type tcpDeploy struct {
	peers   map[gridrep.NodeID]string
	servers []*gridrep.Server
	svcs    []service.Service
	mux     *gridrep.ClientMux // non-nil: clients are sessions of one connection set
	clients []*client.Client
	closed  bool
}

// tcpOptions selects what distinguishes the two TCP workloads.
type tcpOptions struct {
	walDir  string                                // "" = in-memory stores
	gateway bool                                  // client-facing edge on
	mux     bool                                  // sessions over one ClientMux
	wrap    func(service.Service) service.Service // traced run: service wrapper
}

// reservePorts picks free loopback ports by binding and releasing them.
func reservePorts() (map[gridrep.NodeID]string, error) {
	peers := map[gridrep.NodeID]string{}
	var held []net.Listener
	defer func() {
		for _, ln := range held {
			ln.Close()
		}
	}()
	for i := 0; i < replicas; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		held = append(held, ln)
		peers[gridrep.NodeID(i)] = ln.Addr().String()
	}
	return peers, nil
}

func startTCP(opts tcpOptions) (*tcpDeploy, error) {
	peers, err := reservePorts()
	if err != nil {
		return nil, err
	}
	d := &tcpDeploy{peers: peers}
	for i := 0; i < replicas; i++ {
		var svc service.Service = service.NewKV()
		if opts.wrap != nil {
			svc = opts.wrap(svc)
		}
		so := gridrep.ServerOptions{ID: gridrep.NodeID(i), Peers: peers, Service: svc, SyncPolicy: gridrep.SyncBatch}
		if opts.walDir != "" {
			so.WALPath = filepath.Join(opts.walDir, fmt.Sprintf("replica-%d.wal", i))
		}
		if opts.gateway {
			so.Gateway = &gridrep.GatewayOptions{}
		}
		srv, err := gridrep.ListenAndServe(so)
		if err != nil {
			d.close()
			return nil, err
		}
		d.servers = append(d.servers, srv)
		d.svcs = append(d.svcs, svc)
	}
	if opts.mux {
		// ID 500: clear of the session numbers, which share the client ID
		// space and must never repeat an ID (the leader's at-most-once
		// cache would drop a second client's low sequence numbers).
		d.mux, err = gridrep.DialMux(gridrep.DialOptions{ID: 500, Replicas: peers, Deadline: lanDeadline})
		if err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

func (d *tcpDeploy) newClient(n int) (*client.Client, error) {
	var cli *client.Client
	var err error
	if d.mux != nil {
		cli, err = d.mux.Session(0, uint32(n))
	} else {
		cli, err = gridrep.Dial(gridrep.DialOptions{ID: uint32(n), Replicas: d.peers, Deadline: lanDeadline})
	}
	if err == nil {
		d.clients = append(d.clients, cli)
	}
	return cli, err
}

// preloadSessions is how many sessions write the initial state in
// parallel: enough for the leader to batch, whatever the workload's own
// client count.
const preloadSessions = 16

// preload writes version 0 of every register through the replicated
// service, over a session mux of its own that is closed afterwards. The
// session numbers stay clear of the load generators' client IDs.
func (d *tcpDeploy) preload() error {
	mux, err := gridrep.DialMux(gridrep.DialOptions{ID: 501, Replicas: d.peers, Deadline: lanDeadline})
	if err != nil {
		return err
	}
	defer mux.Close()
	errs := make(chan error, preloadSessions)
	per := kvKeys / preloadSessions
	for i := 0; i < preloadSessions; i++ {
		cli, err := mux.Session(0, uint32(1000+i))
		if err != nil {
			return err
		}
		go func(lo int) {
			for k := lo; k < lo+per; k++ {
				if _, err := cli.Write(gridrep.KVPut(kvKey(k), kvValue(k, 0))); err != nil {
					errs <- fmt.Errorf("preload key %d: %w", k, err)
					return
				}
			}
			errs <- nil
		}(i * per)
	}
	for i := 0; i < preloadSessions; i++ {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	return err
}

func (d *tcpDeploy) registries() map[wire.NodeID]*metrics.Registry {
	out := map[wire.NodeID]*metrics.Registry{}
	for i, srv := range d.servers {
		out[wire.NodeID(i)] = srv.Metrics()
	}
	return out
}

func (d *tcpDeploy) healths() []core.Health {
	var out []core.Health
	for _, srv := range d.servers {
		out = append(out, srv.Health())
	}
	return out
}

func (d *tcpDeploy) snapshots() ([][]byte, error) {
	// A server exposes no way onto its event loop, so stop the loops
	// first: after shutdown nothing else touches the services.
	if err := d.shutdown(); err != nil {
		return nil, err
	}
	var out [][]byte
	for _, svc := range d.svcs {
		out = append(out, svc.Snapshot())
	}
	return out, nil
}

func (d *tcpDeploy) shutdown() error {
	if d.closed {
		return nil
	}
	d.closed = true
	for _, cli := range d.clients {
		cli.Close()
	}
	if d.mux != nil {
		d.mux.Close()
	}
	var first error
	for _, srv := range d.servers {
		if err := srv.Shutdown(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (d *tcpDeploy) close() { _ = d.shutdown() }

// clusterDeploy is the in-process cluster on the emulated network.
type clusterDeploy struct {
	cl      *cluster.Cluster
	walDir  string
	wrapSt  func(*storage.File) storage.Store
	clients []*client.Client
}

// clusterOptions selects what distinguishes the two in-process workloads.
type clusterOptions struct {
	profile    netem.Profile
	seed       int64
	service    service.Factory
	walDir     string // "" = in-memory stores
	retryEvery time.Duration
	deadline   time.Duration
	tracer     func(time.Time, *wire.Envelope)
	wrapStore  func(*storage.File) storage.Store // traced run: store wrapper
}

func startCluster(opts clusterOptions) (*clusterDeploy, error) {
	d := &clusterDeploy{walDir: opts.walDir, wrapSt: opts.wrapStore}
	cfg := cluster.Config{
		N:                replicas,
		Profile:          opts.profile,
		Seed:             opts.seed,
		Service:          opts.service,
		ClientRetryEvery: opts.retryEvery,
		ClientDeadline:   opts.deadline,
		Tracer:           opts.tracer,
	}
	if opts.walDir != "" {
		cfg.Stores = map[wire.NodeID]storage.Store{}
		for i := 0; i < replicas; i++ {
			st, err := d.openStore(wire.NodeID(i))
			if err != nil {
				return nil, err
			}
			cfg.Stores[wire.NodeID(i)] = st
		}
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	d.cl = cl
	return d, nil
}

// openStore opens (replaying, if it exists) one replica's WAL.
func (d *clusterDeploy) openStore(id wire.NodeID) (storage.Store, error) {
	f, err := storage.OpenFile(cluster.GroupWALPath(d.walDir, 0, id))
	if err != nil {
		return nil, err
	}
	f.SetPolicy(storage.SyncPolicyBatch, 0)
	if d.wrapSt != nil {
		return d.wrapSt(f), nil
	}
	return f, nil
}

// crashRestart fails a replica the way a machine crash does and brings
// it back after downFor: the replica stops, everything it had staged in
// memory but not yet synced is lost (its store object is dropped and the
// WAL is replayed from disk into a fresh one), and it rejoins. It returns
// the time the reload and restart took.
func (d *clusterDeploy) crashRestart(id wire.NodeID, downFor time.Duration) (time.Duration, error) {
	d.cl.Crash(id)
	time.Sleep(downFor)
	t0 := time.Now()
	st, err := d.openStore(id)
	if err != nil {
		return 0, err
	}
	d.cl.SetStore(id, st)
	if err := d.cl.Restart(id); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

func (d *clusterDeploy) newClient(int) (*client.Client, error) {
	cli, err := d.cl.NewClient()
	if err == nil {
		d.clients = append(d.clients, cli)
	}
	return cli, err
}

func (d *clusterDeploy) registries() map[wire.NodeID]*metrics.Registry {
	out := map[wire.NodeID]*metrics.Registry{}
	for _, id := range d.cl.Running() {
		if reg, ok := d.cl.NodeMetrics(id); ok {
			out[id] = reg
		}
	}
	return out
}

func (d *clusterDeploy) healths() []core.Health {
	var out []core.Health
	for _, id := range d.cl.Running() {
		out = append(out, d.cl.GroupHealths(id)...)
	}
	return out
}

func (d *clusterDeploy) snapshots() ([][]byte, error) {
	var out [][]byte
	for _, id := range d.cl.IDs() {
		rep, ok := d.cl.Replica(id)
		if !ok {
			return nil, fmt.Errorf("replica %v is not running", id)
		}
		var snap []byte
		if !rep.Inspect(func(r *core.Replica) { snap = r.Service().Snapshot() }) {
			return nil, fmt.Errorf("replica %v stopped", id)
		}
		out = append(out, snap)
	}
	return out, nil
}

func (d *clusterDeploy) close() {
	for _, cli := range d.clients {
		cli.Close()
	}
	d.cl.Close()
}

// tempWALDir creates a fresh directory for one run's WALs under outDir.
func tempWALDir(outDir, workload string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "wal-"+workload+"-")
}
