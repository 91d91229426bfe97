package bench

import (
	"fmt"
	"sync"
	"time"

	"gridrep/internal/client"
	"gridrep/internal/cluster"
	"gridrep/internal/metrics"
	"gridrep/internal/service"
)

// ReqClass selects which request kind a workload issues, matching the
// three classes of §4: read (X-Paxos), write (basic protocol), original
// (unreplicated baseline).
type ReqClass int

const (
	ClassRead ReqClass = iota
	ClassWrite
	ClassOriginal
)

func (c ReqClass) String() string {
	switch c {
	case ClassRead:
		return "read"
	case ClassWrite:
		return "write"
	default:
		return "original"
	}
}

// issue sends one request of the class through cli.
func (c ReqClass) issue(cli *client.Client) error { return c.issueOp(cli, service.NoopWriteOp) }

// issueOp sends one request of the class with the given mutation op.
// Reads always use the empty read op: a keyed (non-empty) op would turn
// the X-Paxos leader-local read into a state mutation.
func (c ReqClass) issueOp(cli *client.Client, op []byte) error {
	var err error
	switch c {
	case ClassRead:
		_, err = cli.Read(service.NoopReadOp)
	case ClassWrite:
		_, err = cli.Write(op)
	default:
		_, err = cli.Original(op)
	}
	return err
}

// KeyedWriteOp returns a noop write op tagged with the worker index.
// The noop service treats every non-empty op as the same empty mutation,
// so the tag is semantically inert — but the shard router hashes the
// whole op when a service exposes no keys, so distinct tags give each
// closed-loop worker a stable consensus group. Without it every worker
// of a sharded benchmark would hash onto one group and measure nothing.
func KeyedWriteOp(worker int) []byte {
	op := make([]byte, 5)
	op[0] = service.NoopWriteOp[0] // mutation marker
	op[1] = byte(worker)
	op[2] = byte(worker >> 8)
	op[3] = byte(worker >> 16)
	op[4] = byte(worker >> 24)
	return op
}

// defaultOpFor picks the per-worker op family for a cluster: sharded
// clusters get keyed ops so workers spread across groups; single-group
// clusters keep the byte-identical classic op (the bench baseline's
// wire bytes must not change at -groups 1).
func defaultOpFor(cl *cluster.Cluster) func(worker int) []byte {
	if cl.Groups() > 1 {
		return KeyedWriteOp
	}
	return nil
}

// MeasureRRT measures request response time with a single closed-loop
// client sending n sequential requests (the paper used 20 per sample and
// hundreds of samples; callers control n). It returns per-request
// latencies in milliseconds.
func MeasureRRT(c *cluster.Cluster, class ReqClass, n int) (Stats, error) {
	cli, err := c.NewClient()
	if err != nil {
		return Stats{}, err
	}
	defer cli.Close()
	// Warm up: ensures the leader is active and paths are hot.
	for i := 0; i < 3; i++ {
		if err := class.issue(cli); err != nil {
			return Stats{}, fmt.Errorf("warmup: %w", err)
		}
	}
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := class.issue(cli); err != nil {
			return Stats{}, err
		}
		lat = append(lat, float64(time.Since(start).Microseconds())/1000.0)
	}
	return Summarize(lat), nil
}

// MeasureThroughput runs the paper's throughput experiment: c concurrent
// clients, total/c requests each, all released by a common start signal
// (§4: the leader's start signal made clients begin "at (roughly) the
// same time"). It returns requests per second.
func MeasureThroughput(cl *cluster.Cluster, class ReqClass, clients, total int) (float64, error) {
	p, err := MeasureThroughputPoint(cl, class, clients, total)
	return p.PerSecond, err
}

// MeasureThroughputPoint is MeasureThroughput plus the client-observed
// per-request latency distribution of the run. Every worker observes
// each request's wall time into one shared histogram (lock-free atomic
// buckets, so the measurement does not perturb the workload), from which
// the point's quantiles are extracted.
func MeasureThroughputPoint(cl *cluster.Cluster, class ReqClass, clients, total int) (ThroughputPoint, error) {
	return MeasureThroughputPointOps(cl, class, clients, total, defaultOpFor(cl))
}

// MeasureThroughputPointOps is MeasureThroughputPoint with an explicit
// per-worker op family (nil = the shared classic op). Sharded callers
// pass KeyedWriteOp — or their own keyed builder — so each worker lands
// on a stable consensus group.
func MeasureThroughputPointOps(cl *cluster.Cluster, class ReqClass, clients, total int, opFor func(worker int) []byte) (ThroughputPoint, error) {
	per := total / clients
	if per == 0 {
		per = 1
	}
	if opFor == nil {
		opFor = func(int) []byte { return service.NoopWriteOp }
	}
	clis := make([]*client.Client, clients)
	for i := range clis {
		cli, err := cl.NewClient()
		if err != nil {
			return ThroughputPoint{}, err
		}
		defer cli.Close()
		clis[i] = cli
		// Per-client warmup before the barrier.
		if err := class.issueOp(cli, opFor(i)); err != nil {
			return ThroughputPoint{}, fmt.Errorf("warmup: %w", err)
		}
	}
	hist := metrics.NewHistogram(metrics.UnitNanoseconds)
	start := make(chan struct{})
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for i, cli := range clis {
		wg.Add(1)
		go func(cli *client.Client, op []byte) {
			defer wg.Done()
			<-start
			for j := 0; j < per; j++ {
				t := time.Now()
				if err := class.issueOp(cli, op); err != nil {
					errs <- err
					return
				}
				hist.Since(t)
			}
		}(cli, opFor(i))
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	select {
	case err := <-errs:
		return ThroughputPoint{}, err
	default:
	}
	s := hist.Snapshot()
	return ThroughputPoint{
		Clients:    clients,
		PerSecond:  float64(per*clients) / elapsed.Seconds(),
		RequestTot: per * clients,
		LatMeanMS:  s.MS(s.Mean()),
		LatP50MS:   s.MS(s.P50()),
		LatP95MS:   s.MS(s.P95()),
		LatP99MS:   s.MS(s.P99()),
	}, nil
}

// TxnMode selects the §4.2 transaction coordination mode.
type TxnMode int

const (
	// TxnReadWrite: mixed reads and writes, coordinated individually
	// (X-Paxos for reads, basic protocol for writes and the commit) —
	// T-Paxos not used.
	TxnReadWrite TxnMode = iota
	// TxnWriteOnly: all writes, coordinated individually, plus a
	// coordinated commit — T-Paxos not used.
	TxnWriteOnly
	// TxnOptimized: T-Paxos — replicas coordinate only at commit.
	TxnOptimized
)

func (m TxnMode) String() string {
	switch m {
	case TxnReadWrite:
		return "read/write"
	case TxnWriteOnly:
		return "write-only"
	default:
		return "optimized"
	}
}

// runTxn executes one transaction of nReqs operations in the given mode.
// Mixed transactions follow the paper's composition: a 3-request
// read/write transaction is 2 reads + 1 write; a 5-request one is 3
// reads + 2 writes.
func runTxn(cli *client.Client, mode TxnMode, nReqs int) error {
	switch mode {
	case TxnOptimized:
		tx := cli.Begin()
		for i := 0; i < nReqs; i++ {
			if _, err := tx.Do(service.NoopWriteOp); err != nil {
				return err
			}
		}
		return tx.Commit()
	case TxnWriteOnly:
		for i := 0; i < nReqs; i++ {
			if _, err := cli.Write(service.NoopWriteOp); err != nil {
				return err
			}
		}
		// Processes coordinate for the commit even without T-Paxos
		// (§4.2: committing deletes checkpoints and logs).
		_, err := cli.Write(service.NoopWriteOp)
		return err
	default: // TxnReadWrite
		writes := nReqs / 2 // 3 -> 1 write, 5 -> 2 writes
		reads := nReqs - writes
		for i := 0; i < reads; i++ {
			if _, err := cli.Read(service.NoopReadOp); err != nil {
				return err
			}
		}
		for i := 0; i < writes; i++ {
			if _, err := cli.Write(service.NoopWriteOp); err != nil {
				return err
			}
		}
		_, err := cli.Write(service.NoopWriteOp) // commit
		return err
	}
}

// MeasureTxnRT measures transaction response time (TRT, §4.2 Table 1):
// one client, n sequential transactions of nReqs requests each, in
// milliseconds.
func MeasureTxnRT(c *cluster.Cluster, mode TxnMode, nReqs, n int) (Stats, error) {
	cli, err := c.NewClient()
	if err != nil {
		return Stats{}, err
	}
	defer cli.Close()
	if err := runTxn(cli, mode, nReqs); err != nil {
		return Stats{}, fmt.Errorf("warmup: %w", err)
	}
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := runTxn(cli, mode, nReqs); err != nil {
			return Stats{}, err
		}
		lat = append(lat, float64(time.Since(start).Microseconds())/1000.0)
	}
	return Summarize(lat), nil
}

// MeasureTxnThroughput measures transactions per second with c concurrent
// closed-loop clients (§4.2 Figure 9).
func MeasureTxnThroughput(cl *cluster.Cluster, mode TxnMode, nReqs, clients, totalTxns int) (float64, error) {
	per := totalTxns / clients
	if per == 0 {
		per = 1
	}
	clis := make([]*client.Client, clients)
	for i := range clis {
		cli, err := cl.NewClient()
		if err != nil {
			return 0, err
		}
		defer cli.Close()
		clis[i] = cli
		if err := runTxn(cli, mode, nReqs); err != nil {
			return 0, fmt.Errorf("warmup: %w", err)
		}
	}
	start := make(chan struct{})
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for _, cli := range clis {
		wg.Add(1)
		go func(cli *client.Client) {
			defer wg.Done()
			<-start
			for j := 0; j < per; j++ {
				if err := runTxn(cli, mode, nReqs); err != nil {
					errs <- err
					return
				}
			}
		}(cli)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	select {
	case err := <-errs:
		return 0, err
	default:
	}
	return float64(per*clients) / elapsed.Seconds(), nil
}

// ThroughputPoint is one (clients, throughput) sample of a figure series,
// with the run's client-observed latency distribution in milliseconds
// (zero for series that predate the latency capture, e.g. transactions).
type ThroughputPoint struct {
	Clients    int
	PerSecond  float64
	RequestTot int
	LatMeanMS  float64
	LatP50MS   float64
	LatP95MS   float64
	LatP99MS   float64
}

// Series runs MeasureThroughputPoint across the client counts and returns
// the curve — one series of Figures 5-8.
func Series(cl *cluster.Cluster, class ReqClass, clientCounts []int, total int) ([]ThroughputPoint, error) {
	var out []ThroughputPoint
	for _, c := range clientCounts {
		tp, err := MeasureThroughputPoint(cl, class, c, total)
		if err != nil {
			return nil, fmt.Errorf("%v clients=%d: %w", class, c, err)
		}
		out = append(out, tp)
	}
	return out, nil
}

// TxnSeries runs MeasureTxnThroughput across client counts — one series
// of Figure 9.
func TxnSeries(cl *cluster.Cluster, mode TxnMode, nReqs int, clientCounts []int, totalTxns int) ([]ThroughputPoint, error) {
	var out []ThroughputPoint
	for _, c := range clientCounts {
		tp, err := MeasureTxnThroughput(cl, mode, nReqs, c, totalTxns)
		if err != nil {
			return nil, fmt.Errorf("%v clients=%d: %w", mode, c, err)
		}
		out = append(out, ThroughputPoint{Clients: c, PerSecond: tp, RequestTot: totalTxns})
	}
	return out, nil
}
