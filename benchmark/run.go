package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"gridrep/internal/wire"
)

// Shares of a traced run's measuring time: the full load with registry
// deltas, then one client without and with span recording.
const (
	shareLoad     = 0.50
	shareUntraced = 0.15
	shareTraced   = 0.35
)

// summary is the client-observed outcome of one load phase.
type summary struct {
	attempted, failed int
	acked             map[opClass]int
	lat               map[opClass][]float64 // ms, sorted, acknowledged ops only
	all               []float64             // ms, sorted, every class
	opsPerS           float64
}

// summarize classifies the operations of a phase that began at t0 (ns
// since the epoch). An operation that returned an error or outlived the
// deadline failed. Throughput is acknowledged operations over the time
// from t0 to the last completion.
func summarize(ops []opRecord, t0 int64, deadline time.Duration) summary {
	s := summary{acked: map[opClass]int{}, lat: map[opClass][]float64{}}
	last := t0
	for i := range ops {
		op := &ops[i]
		s.attempted++
		if op.Failed || time.Duration(op.End-op.Due) > deadline {
			op.Failed = true
			s.failed++
			continue
		}
		c := op.Kind.class()
		s.acked[c]++
		s.lat[c] = append(s.lat[c], op.latencyMS())
		s.all = append(s.all, op.latencyMS())
		if op.End > last {
			last = op.End
		}
	}
	for _, l := range s.lat {
		sort.Float64s(l)
	}
	sort.Float64s(s.all)
	if last > t0 {
		s.opsPerS = float64(s.attempted-s.failed) / (float64(last-t0) / 1e9)
	}
	return s
}

// pXX returns the q-quantile of a class's latency: the median whenever
// the class has samples, a higher percentile only when the sample supports
// it under the reporting rule, else 0.
func (s *summary) pXX(c opClass, q float64) float64 {
	if q > 0.5 && !supports(len(s.lat[c]), q) {
		return 0
	}
	return quantile(s.lat[c], q)
}

// regTracker keeps each replica's registry baseline so that deltas over a
// window survive a replica being crashed and restarted with a fresh
// registry.
type regTracker struct {
	dep   deployment
	mu    sync.Mutex
	base  map[wire.NodeID]regSnap
	total *regTotals
	first map[string]int64 // highest value of the watched gauges at start
}

// watched gauges whose growth over the window is reported.
var grownGauges = []string{"gridrep_commit_index", "gridrep_ballot_round"}

func newRegTracker(dep deployment) *regTracker {
	t := &regTracker{dep: dep, base: map[wire.NodeID]regSnap{}, total: newRegTotals(), first: map[string]int64{}}
	for id, reg := range dep.registries() {
		s := snapRegistry(reg)
		t.base[id] = s
		for _, g := range grownGauges {
			if v := s[g].Value; v > t.first[g] {
				t.first[g] = v
			}
		}
	}
	return t
}

// retire folds a replica's delta in before it goes down.
func (t *regTracker) retire(id wire.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if reg, ok := t.dep.registries()[id]; ok {
		t.total.addDelta(t.base[id], snapRegistry(reg))
	}
	delete(t.base, id)
}

// rejoin starts a restarted replica's fresh registry from zero.
func (t *regTracker) rejoin(id wire.NodeID) {
	t.mu.Lock()
	t.base[id] = regSnap{}
	t.mu.Unlock()
}

// sample records the current gauge values (queue depths and the like).
func (t *regTracker) sample() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, reg := range t.dep.registries() {
		t.total.sampleGauges(snapRegistry(reg))
	}
}

// finish folds in every running replica.
func (t *regTracker) finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, reg := range t.dep.registries() {
		t.total.addDelta(t.base[id], snapRegistry(reg))
	}
}

// grown is how far a watched gauge's cluster-wide maximum rose.
func (t *regTracker) grown(name string) float64 {
	return float64(t.total.gaugeMax[name] - t.first[name])
}

// loadPhase runs the workload's full load for d — closed loops, or the
// open loop with leader crashes — and returns the operations, the open
// loop's generator lags, and the registry totals when track is set.
func (r *rig) loadPhase(d time.Duration, track bool) (ops []opRecord, lags []float64, tr *regTracker, err error) {
	stopSampler := make(chan struct{})
	var bg sync.WaitGroup
	retire, rejoin := func(wire.NodeID) {}, func(wire.NodeID) {}
	if track {
		tr = newRegTracker(r.dep)
		retire, rejoin = tr.retire, tr.rejoin
		bg.Add(1)
		go func() { // gauges at 10 Hz
			defer bg.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-tick.C:
					tr.sample()
				}
			}
		}()
	}
	if r.p.workload != wlFailover {
		ops = runClosed(r.sessions, d)
	} else {
		if track {
			bg.Add(1)
			go func() { defer bg.Done(); r.watchRoles(stopSampler) }()
		}
		var injectErr error
		var inj sync.WaitGroup
		inj.Add(1)
		start := time.Now()
		go func() {
			defer inj.Done()
			injectErr = r.injectCrashes(start, crashSchedule(r.p.seed, d), retire, rejoin)
		}()
		ops, lags = r.runOpen(d)
		inj.Wait()
		err = injectErr
	}
	close(stopSampler)
	bg.Wait()
	if track {
		tr.finish()
	}
	return ops, lags, tr, err
}

// measure runs an untraced window and returns the end-to-end metrics
// except peak_rss_mb, which the parent process reads off this one.
func (r *rig) measure(w io.Writer) (result, error) {
	d := time.Duration(r.p.seconds * float64(time.Second))
	t0 := int64(time.Since(r.epoch))
	ops, _, _, err := r.loadPhase(d, false)
	if err != nil {
		return result{}, err
	}
	s := summarize(ops, t0, r.deadline)
	var v violations
	r.verify(ops, &v)
	fmt.Fprintf(w, "correctness: %s\n", v.String())
	m := map[string]float64{
		"ops_per_s":    s.opsPerS,
		"read_p50_ms":  s.pXX(classRead, 0.5),
		"write_p50_ms": s.pXX(classWrite, 0.5),
		"setup_s":      r.setupS,
	}
	return result{Correct: v.ok(), Attempted: s.attempted, Failed: s.failed, Metrics: fill(endToEnd, m)}, nil
}

// measureTraced runs the three phases of a traced run and returns the
// per-layer metrics.
func (r *rig) measureTraced(w io.Writer) (result, error) {
	total := r.p.seconds * float64(time.Second)
	m := map[string]float64{"cluster.boot_ms": r.bootMS, "cluster.preload_s": r.preloadS}

	// Phase 1: the full load, with registry deltas over exactly this
	// window (and, on lan-failover, the role watcher).
	var delivered0, requests0 uint64
	if r.nett != nil {
		delivered0, requests0 = r.nett.delivered.Load(), r.nett.requests.Load()
	}
	drops0 := r.netDrops()
	t0 := int64(time.Since(r.epoch))
	ops, lags, tr, err := r.loadPhase(time.Duration(total*shareLoad), true)
	if err != nil {
		return result{}, err
	}
	s := summarize(ops, t0, r.deadline)
	r.registryMetrics(m, tr, &s)
	if r.nett != nil {
		m["transport.msgs_per_op"] = ratio(float64(r.nett.delivered.Load()-delivered0), float64(s.attempted))
		m["client.requests_per_op"] = ratio(float64(r.nett.requests.Load()-requests0), float64(s.attempted))
	}
	m["transport.drops"] += float64(r.netDrops() - drops0)
	m["read_p95_ms"] = s.pXX(classRead, 0.95)
	m["write_p95_ms"] = s.pXX(classWrite, 0.95)
	m["txn_p50_ms"] = s.pXX(classTxn, 0.5)
	m["failed_share"] = ratio(float64(s.failed), float64(s.attempted))
	m["bench.samples"] = float64(len(s.all))
	if supports(len(s.all), 0.99) {
		m["client.lat_p99_ms"] = quantile(s.all, 0.99)
	}
	if len(lags) > 0 {
		sort.Float64s(lags)
		m["bench.generator_lag_p95_ms"] = quantile(lags, 0.95)
	}
	if r.p.workload == wlFailover {
		r.failoverMetrics(m, ops, tr)
	}
	m["core.outside_leader_us"] = s.pXX(classWrite, 0.5)*1e3 - m["core.request_p50_us"]

	// Phases 2 and 3: one closed-loop client, first with the wrappers
	// idle, then recording spans.
	one := []session{r.solo()}
	t1 := int64(time.Since(r.epoch))
	plain := runClosed(one, time.Duration(total*shareUntraced))
	ps := summarize(plain, t1, r.deadline)
	r.rec.on.Store(true)
	t2 := int64(time.Since(r.epoch))
	traced := runClosed(one, time.Duration(total*shareTraced))
	r.rec.on.Store(false)
	ts := summarize(traced, t2, r.deadline)
	if base := ps.pXX(classWrite, 0.5); base > 0 {
		m["bench.trace_overhead_pct"] = (ts.pXX(classWrite, 0.5) - base) / base * 100
	}

	all := append(append(ops, plain...), traced...)
	var v violations
	r.verify(all, &v)
	fmt.Fprintf(w, "correctness: %s\n", v.String())

	if err := r.budgetMetrics(w, m, traced); err != nil {
		return result{}, err
	}

	direct, err := layerCalls(r.shape, r.scratchDir())
	if err != nil {
		return result{}, err
	}
	for k, val := range direct {
		m[k] = val
	}
	if r.shape.hasNetem {
		// One client alone is what §3.4 models: no queueing behind other
		// clients' requests or transactions.
		alone := summarize(append(plain, traced...), t1, r.deadline)
		m["core.model_residual_read_ms"] = alone.pXX(classRead, 0.5) - m["netem.model_read_ms"]
		m["core.model_residual_write_ms"] = alone.pXX(classWrite, 0.5) - m["netem.model_write_ms"]
	}
	failed := s.failed + ps.failed + ts.failed
	return result{Correct: v.ok(), Attempted: len(all), Failed: failed, Metrics: fill(perLayer, m)}, nil
}

// netDrops is the in-process fabric's drop count (0 over TCP, where the
// registry's drop counters are used instead).
func (r *rig) netDrops() uint64 {
	if r.cluster == nil {
		return 0
	}
	return r.cluster.cl.Net.Drops()
}

// scratchDir is where the direct storage calls put their WALs.
func (r *rig) scratchDir() string {
	if r.walDir != "" {
		return r.walDir
	}
	return r.p.outDir
}

// registryMetrics derives the R-sourced per-layer metrics from the
// registry deltas of the load phase.
func (r *rig) registryMetrics(m map[string]float64, tr *regTracker, s *summary) {
	t := tr.total
	c := func(name string) float64 { return t.counters[name] }
	ops := float64(s.attempted)
	writes := float64(s.acked[classWrite] + s.acked[classTxn])

	if sent := c("gridrep_tcp_sent_total"); sent > 0 {
		m["transport.msgs_per_op"] = ratio(sent, ops)
	}
	m["transport.decode_p50_us"] = t.histQuantile("gridrep_tcp_decode_seconds", 0.5, 1e3)
	m["transport.queue_depth_max"] = float64(t.gaugeMax["gridrep_tcp_queue_depth"])
	for _, cause := range []string{"queue_full", "no_route", "write_fail", "recv_overflow", "reply_overflow", "reply_shed", "reply_slow_client"} {
		m["transport.drops"] += c("gridrep_tcp_drop_" + cause + "_total")
	}

	m["storage.fsyncs_per_write"] = ratio(c("gridrep_wal_syncs_total")/replicas, writes)
	m["storage.records_per_batch_p50"] = t.histBucket("gridrep_wal_batch_records", 0.5)
	m["storage.wal_bytes_per_write"] = ratio(c("gridrep_wal_batch_bytes_total")/replicas, writes)
	m["storage.wal_rewrites"] = c("gridrep_wal_rewrites_total")
	m["storage.fsync_p50_ms"] = t.histQuantile("gridrep_wal_fsync_latency_seconds", 0.5, 1e6)
	m["storage.fsync_p95_ms"] = t.histQuantile("gridrep_wal_fsync_latency_seconds", 0.95, 1e6)

	m["core.execute_p50_us"] = t.histQuantile("gridrep_execute_latency_seconds", 0.5, 1e3)
	m["core.execute_p95_us"] = t.histQuantile("gridrep_execute_latency_seconds", 0.95, 1e3)
	m["core.quorum_p50_us"] = t.histQuantile("gridrep_quorum_latency_seconds", 0.5, 1e3)
	m["core.request_p50_us"] = t.histQuantile("gridrep_request_latency_seconds", 0.5, 1e3)
	m["core.reqs_per_wave"] = ratio(tr.grown("gridrep_commit_index"), c("gridrep_waves_committed_total"))
	m["core.waves_in_flight_max"] = float64(t.gaugeMax["gridrep_waves_in_flight_max"])
	m["core.reads_parallel_share"] = ratio(c("gridrep_reads_parallel_total"), c("gridrep_reads_parallel_total")+c("gridrep_reads_inline_total"))
	m["core.read_pool_queue_depth_max"] = float64(t.gaugeMax["gridrep_read_pool_queue_depth"])
	m["core.waves_rolled_back"] = c("gridrep_waves_rolled_back_total")
	m["core.deferred_drops"] = c("gridrep_deferred_drops_total")
	m["core.snapshot_saves"] = c("gridrep_snapshot_saves_total")

	sheds := c("gridrep_gateway_shed_throttle_total") + c("gridrep_gateway_shed_queue_full_total") + c("gridrep_gateway_shed_queue_aged_total")
	fresh := c("gridrep_gateway_admitted_total") + c("gridrep_gateway_queued_total") + sheds
	m["gateway.queued_share"] = ratio(c("gridrep_gateway_queued_total"), fresh)
	m["gateway.shed_share"] = ratio(sheds, fresh)
	m["gateway.dedup_hits"] = c("gridrep_gateway_dedup_hits_total")
	m["gateway.inflight_max"] = float64(t.gaugeMax["gridrep_gateway_inflight"])
}

// failoverMetrics derives the crash-cycle metrics of lan-failover: the
// time without service per crash and its three parts, the elections it
// took and the restart cost.
func (r *rig) failoverMetrics(m map[string]float64, ops []opRecord, tr *regTracker) {
	if len(r.crashes) == 0 {
		return
	}
	var detect, activate, firstAck, restart []float64
	unavail := unavailability(r.crashes, ops)
	for i, c := range r.crashes {
		restart = append(restart, c.restartMS)
		if c.detectAt == 0 || c.leadAt == 0 || i >= len(unavail) {
			continue
		}
		detect = append(detect, float64(c.detectAt-c.at)/1e6)
		activate = append(activate, float64(c.leadAt-c.detectAt)/1e6)
		firstAck = append(firstAck, unavail[i]-float64(c.leadAt-c.at)/1e6)
	}
	m["unavail_ms"] = median(unavail)
	m["omega.detect_ms"] = median(detect)
	m["omega.activate_ms"] = median(activate)
	m["client.first_ack_ms"] = median(firstAck)
	m["storage.restart_ms"] = median(restart)
	m["omega.elections_per_crash"] = ratio(tr.grown("gridrep_ballot_round"), float64(len(r.crashes)))
}

// budgetMetrics turns the recorded spans into per-class budgets, prints
// them, writes the trace file and fills the T-sourced metrics from the
// write budget.
func (r *rig) budgetMetrics(w io.Writer, m map[string]float64, traced []opRecord) error {
	clientID := r.solo().clientID()
	r.rec.mu.Lock()
	spans := append([]span(nil), r.rec.spans...)
	r.rec.mu.Unlock()
	bs := budgets(traced, clientID, spans)
	note := "spans: client.op, service.execute, storage.put, storage.flush, net.deliver.<type>"
	if r.nett == nil {
		note = "TCP deployment: only the service wrapper sees inside it, so spans are client.op and service.execute; " +
			"store and network time stay in core.unattributed_us"
	}
	fmt.Fprintf(w, "traced budget (%s)\n", note)
	for _, class := range []string{"read", "write", "txn"} {
		b := bs[class]
		if b == nil {
			continue
		}
		fmt.Fprintf(w, "  %-5s %6d ops  client-observed mean %10.1f us\n", class, b.Ops, b.MeanUS)
		layers := make([]string, 0, len(b.SelfUS))
		sum := b.Unattributed
		for l, us := range b.SelfUS {
			layers = append(layers, l)
			sum += us
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(w, "        %-24s %10.1f us\n", l, b.SelfUS[l])
		}
		fmt.Fprintf(w, "        %-24s %10.1f us\n        %-24s %10.1f us\n", "core.unattributed_us", b.Unattributed, "sum", sum)
	}
	if b := bs["write"]; b != nil {
		m["core.unattributed_us"] = b.Unattributed
		m["service.execute_self_us"] = b.SelfUS[spanExecute]
		m["wire.bytes_per_write"] = b.BytesPerOp
	}
	// Roots and children interleaved in time order, so a truncated file
	// still holds whole operations.
	for _, op := range traced {
		spans = append(spans, span{Name: spanRoot, Start: op.Start, End: op.End, Client: clientID, Seq: op.SeqLo})
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].End < spans[j].End })
	path, err := writeTrace(r.p.outDir, traceFile{Workload: r.p.workload, Seed: r.p.seed, Note: note, Budgets: bs, Spans: spans})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace written to %s\n", path)
	return nil
}
