package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gridrep/internal/client"
	"gridrep/internal/cluster"
	"gridrep/internal/gateway"
	"gridrep/internal/metrics"
	"gridrep/internal/service"
)

// measureThroughput is the closed-loop write throughput of clients
// clients, total/clients writes each, all released by one start signal:
// the saturation point fig-overload's offered rates are multiples of.
func measureThroughput(cl *cluster.Cluster, clients, total int) (float64, error) {
	per := max(total/clients, 1)
	clis := make([]*client.Client, clients)
	for i := range clis {
		cli, err := cl.NewClient()
		if err != nil {
			return 0, err
		}
		defer cli.Close()
		clis[i] = cli
		if _, err := cli.Write(service.NoopWriteOp); err != nil {
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
				if _, err := cli.Write(service.NoopWriteOp); err != nil {
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

// A closed loop holds offered load hostage to service time: when the
// cluster slows down, the clients slow down with it, so a closed-loop
// sweep can never push the system past saturation. The open-loop harness
// below does the opposite — arrivals follow a Poisson process at a fixed
// target rate regardless of how the cluster is doing, which is how real
// front ends experience overload. Goodput (acked writes per second),
// shed fraction, and arrival-to-ack latency at rates beyond saturation
// are the gateway's admission-control acceptance metrics (DESIGN.md
// §15).

// openLoopConfig parameterizes one open-loop measurement point.
type openLoopConfig struct {
	// Rate is the target offered load in requests/second.
	Rate float64
	// Duration is the arrival-generation window (default 2s).
	Duration time.Duration
	// Workers bounds concurrent in-service requests; arrivals beyond it
	// queue, open-loop style (default 128).
	Workers int
	// Tenant is the session tenant for the worker pool's client IDs.
	Tenant uint8
	// Deadline bounds one request end to end (default 2s). The default
	// factory's clients treat the first shed as terminal (see
	// client.Config.AbortOnOverload), so the deadline is what turns a
	// request stuck inside the protocol into a Timeout outcome.
	Deadline time.Duration
	// RetryEvery is the pool clients' base rebroadcast interval (default
	// 100ms); overload sheds override it with the gateway's typed hint.
	RetryEvery time.Duration
	// Seed drives the Poisson arrival process (default 1).
	Seed int64
	// NewClient overrides the session-client factory (nil = a fresh
	// session of Tenant per worker on the cluster's network).
	NewClient func(worker int) (*client.Client, error)
}

// openLoopPoint is one measured (offered load → outcome) sample.
type openLoopPoint struct {
	// TargetRate is the configured arrival rate; OfferedPerSec is the
	// rate actually generated (they track closely unless the generator
	// itself fell behind).
	TargetRate    float64
	OfferedPerSec float64
	// GoodputPerSec is acked (StatusOK) requests per second of the
	// generation window — the headline number admission control must
	// hold flat past saturation.
	GoodputPerSec float64
	ShedPerSec    float64
	// ShedFrac is Sheds/Offered: the fraction of offered load the edge
	// turned away with a typed overload.
	ShedFrac float64
	// Outcome counts over every offered arrival. Unserved arrivals were
	// still queued client-side when the window closed — casualties of
	// saturation that never reached the wire.
	Offered, OKs, Sheds, Timeouts, Errors, Unserved int
	// Arrival-to-ack latency of acked requests, client-side queueing
	// included (open-loop latency, not service time).
	LatMeanMS, LatP50MS, LatP95MS, LatP99MS float64
}

// openLoopSession hands out cluster-unique session numbers so that
// back-to-back measurement points on one cluster never reuse a (client,
// seq) identity — a reused session would restart its sequence space and
// look like a replay of a stale duplicate to the leader's reply cache
// and the gateway dedup window. The counter starts far above the small
// per-cluster offsets cluster.NewClient hands to closed-loop clients,
// which live in the same tenant-0 band of the session ID space.
var openLoopSession = func() *atomic.Uint32 {
	var v atomic.Uint32
	v.Store(1 << 20)
	return &v
}()

func (cfg *openLoopConfig) withDefaults(cl *cluster.Cluster) error {
	if cfg.Rate <= 0 {
		return fmt.Errorf("open loop needs a positive Rate, got %v", cfg.Rate)
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 128
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 2 * time.Second
	}
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = 100 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.NewClient == nil {
		cfg.NewClient = func(worker int) (*client.Client, error) {
			ep, err := cl.Net.Endpoint(gateway.SessionID(cfg.Tenant, openLoopSession.Add(1)))
			if err != nil {
				return nil, err
			}
			return client.New(client.Config{
				Transport:  ep,
				Replicas:   cl.IDs(),
				RetryEvery: cfg.RetryEvery,
				Deadline:   cfg.Deadline,
				// A shed arrival is a terminal outcome for the sweep: if
				// the worker instead looped on the retry-after hint, the
				// retries would add themselves to the offered load the
				// sweep is supposed to control, and a worker stuck in a
				// shed-retry loop until its deadline would throttle the
				// pool exactly when the measurement needs it most.
				AbortOnOverload: true,
			}), nil
		}
	}
	return nil
}

// measureOpenLoop offers cfg.Rate requests/second of Poisson arrivals to
// the cluster for cfg.Duration and reports what came back. Unlike the
// closed-loop harnesses, the arrival process never waits for the
// cluster: when offered load exceeds capacity the client-side queue
// grows, latency includes the wait, and the edge's shed/timeout policy —
// not the arrival rate — decides what completes.
func measureOpenLoop(cl *cluster.Cluster, cfg openLoopConfig) (openLoopPoint, error) {
	if err := cfg.withDefaults(cl); err != nil {
		return openLoopPoint{}, err
	}

	clis := make([]*client.Client, cfg.Workers)
	for i := range clis {
		cli, err := cfg.NewClient(i)
		if err != nil {
			return openLoopPoint{}, err
		}
		defer cli.Close()
		clis[i] = cli
	}
	// Warm every session's route (and the leader) before the clock
	// starts — in parallel, because a measurement pool can be thousands
	// of sessions and serial warmup would take longer than the window.
	// Warmup ops retry on sheds and timeouts: the pool deliberately
	// outnumbers the edge's admission budget (sheds are expected), and a
	// back-to-back sweep's previous point may leave the leader a backlog
	// of abandoned requests that warmup must outwait — retrying here is
	// what makes warmup double as the inter-point settling barrier.
	// Anything else failing means the cluster is not ready at all.
	warmSem := make(chan struct{}, 64)
	warmErr := make(chan error, 1)
	var warmWG sync.WaitGroup
	for _, cli := range clis {
		warmWG.Add(1)
		go func(cli *client.Client) {
			defer warmWG.Done()
			warmSem <- struct{}{}
			defer func() { <-warmSem }()
			var err error
			for attempt := 0; attempt < 20; attempt++ {
				if _, err = cli.Write(service.NoopWriteOp); err == nil ||
					(!errors.Is(err, client.ErrOverloaded) && !errors.Is(err, client.ErrTimeout)) {
					break
				}
				time.Sleep(25 * time.Millisecond)
			}
			if err != nil {
				select {
				case warmErr <- fmt.Errorf("open-loop warmup: %w", err):
				default:
				}
			}
		}(cli)
	}
	warmWG.Wait()
	select {
	case err := <-warmErr:
		return openLoopPoint{}, err
	default:
	}

	// The work queue is the open-loop client-side backlog. It is sized
	// for every arrival the window can generate, so the Poisson process
	// itself never blocks; the Unserved count at drain time is what
	// saturation left behind.
	backlog := int(cfg.Rate*cfg.Duration.Seconds()) + cfg.Workers + 16
	work := make(chan time.Time, backlog)

	var (
		oks, sheds, timeouts, errs, unserved atomic.Int64
		hist                                 = metrics.NewHistogram(metrics.UnitNanoseconds)
		wg                                   sync.WaitGroup
		end                                  time.Time
		endMu                                sync.Mutex // guards end until the generator stamps it
	)
	windowClosed := func(now time.Time) bool {
		endMu.Lock()
		defer endMu.Unlock()
		return !end.IsZero() && now.After(end)
	}
	for _, cli := range clis {
		wg.Add(1)
		go func(cli *client.Client) {
			defer wg.Done()
			for arrival := range work {
				now := time.Now()
				if windowClosed(now) {
					// The window is over and this arrival never got a
					// worker: it queued for the entire remainder of the
					// run. Serving it now would measure the drain, not
					// the offered-load point.
					unserved.Add(1)
					continue
				}
				_, err := cli.Write(service.NoopWriteOp)
				switch {
				case err == nil:
					oks.Add(1)
					hist.Since(arrival)
				case errors.Is(err, client.ErrOverloaded):
					sheds.Add(1)
				case errors.Is(err, client.ErrTimeout):
					timeouts.Add(1)
				default:
					errs.Add(1)
				}
			}
		}(cli)
	}

	// Poisson arrival generator: exponential inter-arrival gaps at the
	// target rate. Oversleeps are not compensated by bursting harder —
	// each gap is measured from the previous intended arrival, so the
	// process self-corrects toward the target rate.
	rng := rand.New(rand.NewSource(cfg.Seed))
	t0 := time.Now()
	stop := t0.Add(cfg.Duration)
	offered := 0
	next := t0
	for {
		next = next.Add(time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second)))
		if next.After(stop) {
			break
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		work <- next
		offered++
	}
	endMu.Lock()
	end = time.Now()
	endMu.Unlock()
	close(work)
	wg.Wait()

	elapsed := end.Sub(t0).Seconds()
	s := hist.Snapshot()
	p := openLoopPoint{
		TargetRate:    cfg.Rate,
		OfferedPerSec: float64(offered) / elapsed,
		GoodputPerSec: float64(oks.Load()) / elapsed,
		ShedPerSec:    float64(sheds.Load()) / elapsed,
		Offered:       offered,
		OKs:           int(oks.Load()),
		Sheds:         int(sheds.Load()),
		Timeouts:      int(timeouts.Load()),
		Errors:        int(errs.Load()),
		Unserved:      int(unserved.Load()),
		LatMeanMS:     s.MS(s.Mean()),
		LatP50MS:      s.MS(s.P50()),
		LatP95MS:      s.MS(s.P95()),
		LatP99MS:      s.MS(s.P99()),
	}
	if offered > 0 {
		p.ShedFrac = float64(p.Sheds) / float64(offered)
	}
	return p, nil
}
