package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gridrep/internal/netem"
	"gridrep/internal/service"
	"gridrep/internal/wire"
)

// The paper's evaluation (§4) in virtual time, on the simulator: the
// §4.1 response times, Table 1, the throughput curves of Figures 5-9 and
// the §4.3 replica counts, each shape criterion of DESIGN.md §4 as one
// named predicate, and the protocol-cost golden (messages, bytes, waves,
// flushes and delays per operation) next to them. `make paper` prints
// the tables with each predicate's PASS/FAIL.

// The service-time model (DESIGN.md §20). One constant per input: every
// delivered envelope costs a decode, an Accept also its acceptor step,
// and a request the active leader executes — an original, a read, a
// write or a transaction operation — also the service execution.
// Calibrated once from `bash benchmark/run.sh --workload tcp-mem-mixed
// --seed 1 --trace 1` on a 2-vCPU Linux container (3 TCP replicas,
// in-memory stores, a 1 MB KV): transport.decode_p50_us 0.222,
// paxos.on_accept_ns 985, service.execute_self_us 182.53. These are not
// knobs: a predicate that fails under them is marked model-dependent in
// DESIGN.md §4, never passed by changing them.
const (
	decodeCost   = 222 * time.Nanosecond
	onAcceptCost = 985 * time.Nanosecond
	executeCost  = 182530 * time.Nanosecond
)

func serviceTime(r *Replica, env *wire.Envelope) time.Duration {
	d := decodeCost
	switch m := env.Msg.(type) {
	case *wire.Accept:
		d += onAcceptCost
	case *wire.RequestMsg:
		if k := m.Req.Kind; r.IsActiveLeader() && k != wire.KindTxnCommit && k != wire.KindTxnAbort {
			d += executeCost
		}
	}
	return d
}

// paperOp is one client operation of §4: a request, or a Table 1
// transaction made of several, issued one after another.
type paperOp struct {
	name string
	reqs func(c *simClient) []wire.Request
}

func oneReq(kind wire.RequestKind, op []byte) func(*simClient) []wire.Request {
	return func(*simClient) []wire.Request { return []wire.Request{{Kind: kind, Op: op}} }
}

var (
	opOriginal = paperOp{"original", oneReq(wire.KindOriginal, service.NoopWriteOp)}
	opRead     = paperOp{"read", oneReq(wire.KindRead, service.NoopReadOp)}
	opWrite    = paperOp{"write", oneReq(wire.KindWrite, service.NoopWriteOp)}
)

// txnOp is a Table 1 transaction of n requests. Without T-Paxos each
// request is coordinated on its own and a write commits (§4.2): a
// read/write transaction of 3 is 2 reads and 1 write, of 5 is 3 reads
// and 2 writes; a write-only one is n writes. Optimized is T-Paxos: n
// transaction operations and one commit.
func txnOp(mode string, n int) paperOp {
	read := wire.Request{Kind: wire.KindRead, Op: service.NoopReadOp}
	write := wire.Request{Kind: wire.KindWrite, Op: service.NoopWriteOp}
	return paperOp{fmt.Sprintf("%s/%d", mode, n), func(c *simClient) []wire.Request {
		var reqs []wire.Request
		switch mode {
		case "optimized":
			txn := c.seq + 1
			for i := 0; i < n; i++ {
				reqs = append(reqs, wire.Request{Kind: wire.KindTxnOp, Txn: txn, TxnSeq: uint32(i), Op: service.NoopWriteOp})
			}
			return append(reqs, wire.Request{Kind: wire.KindTxnCommit, Txn: txn, TxnSeq: uint32(n)})
		case "write-only":
			for i := 0; i <= n; i++ {
				reqs = append(reqs, write)
			}
		default:
			writes := n / 2
			for i := 0; i < n-writes; i++ {
				reqs = append(reqs, read)
			}
			for i := 0; i <= writes; i++ {
				reqs = append(reqs, write)
			}
		}
		return reqs
	}}
}

var txnModes = []string{"read/write", "write-only", "optimized"}

// chain issues reqs one after another, each once the previous one is
// answered OK, then calls done(true); a request answered otherwise ends
// the chain with done(false).
func (c *simClient) chain(reqs []wire.Request, done func(ok bool)) {
	if len(reqs) == 0 {
		done(true)
		return
	}
	c.do(reqs[0], func(rep wire.Reply) {
		if rep.Status != wire.StatusOK {
			done(false)
			return
		}
		c.chain(reqs[1:], done)
	})
}

// mustChain is chain for runs where every request must succeed.
func (c *simClient) mustChain(name string, reqs []wire.Request, done func()) {
	c.chain(reqs, func(ok bool) {
		if !ok {
			c.s.t.Errorf("client %d: %s failed", c.id, name)
			return
		}
		done()
	})
}

// timeOp runs one operation to completion and returns its virtual
// response time.
func (c *simClient) timeOp(op paperOp) time.Duration {
	c.s.t.Helper()
	start, finished := c.s.now, false
	c.mustChain(op.name, op.reqs(c), func() { finished = true })
	if !c.s.runUntil(time.Minute, func() bool { return finished }) {
		c.s.t.Fatalf("client %d: %s unanswered", c.id, op.name)
	}
	return c.s.now.Sub(start)
}

// paperSim is a cluster on a paper profile: links at their means, no
// disk, the noop service, replica 0 leading (the WAN profile's leader
// site), and, when timed, the service-time model.
func paperSim(t testing.TB, p netem.Profile, n int, timed bool) *sim {
	cfg := simConfig{n: n, seed: 1, profile: &p, noDisk: true, retry: time.Second,
		service: func(wire.NodeID, int) service.Service { return service.NewNoop() }}
	if timed {
		cfg.cost = serviceTime
	}
	s := newSim(t, cfg)
	if lead := s.awaitLeader(10 * time.Second); lead != 0 {
		t.Fatalf("%s: replica %d leads, want 0", p.Name, lead)
	}
	return s
}

// latencyModel is §3.4's composition from the profile's link means —
// original 2M, read 2M + max(E, m), write 2M + E + 2m with E = 0 and the
// client-to-leader and client-to-backup legs kept apart (the WAN
// profile's clients are nearer the backups) — which is what the
// benchmark's modelLatency computes.
func latencyModel(p netem.Profile) [3]time.Duration {
	m := p.NewModel(0)
	cl, ld, bk := m.ClassOf(wire.ClientIDBase), m.ClassOf(0), m.ClassOf(1)
	d := m.MeanLatency
	return [3]time.Duration{
		d(cl, ld) + d(ld, cl),
		max(d(cl, ld), d(cl, bk)+d(bk, ld)) + d(ld, cl),
		d(cl, ld) + d(ld, bk) + d(bk, ld) + d(ld, cl),
	}
}

// rrtRow is one §4.1 response-time row: original, read and write.
type rrtRow struct {
	name          string
	lo, hi, model [3]time.Duration
}

func measureRRT(t testing.TB, name string, p netem.Profile, n int) rrtRow {
	s := paperSim(t, p, n, false)
	c := s.newClient()
	row := rrtRow{name: name, model: latencyModel(p)}
	for i, op := range []paperOp{opOriginal, opRead, opWrite} {
		for w := 0; w < 3; w++ {
			c.timeOp(op)
		}
		row.lo[i] = time.Duration(math.MaxInt64)
		for k := 0; k < 5; k++ {
			d := c.timeOp(op)
			row.lo[i], row.hi[i] = min(row.lo[i], d), max(row.hi[i], d)
		}
	}
	return row
}

// closedLoop is the paper's throughput experiment (§4): clients closed
// loop clients, each with one warm-up operation, then total/clients
// operations each after one common start. It returns operations per
// virtual second.
func closedLoop(s *sim, op paperOp, clients, total int) float64 {
	s.t.Helper()
	per := max(total/clients, 1)
	cs := make([]*simClient, clients)
	for i := range cs {
		cs[i] = s.newClient()
		cs[i].timeOp(op)
	}
	start, left := s.now, clients
	for _, c := range cs {
		n := 0
		var next func()
		next = func() {
			if n == per {
				left--
				return
			}
			n++
			c.mustChain(op.name, op.reqs(c), next)
		}
		next()
	}
	if !s.runUntil(time.Minute, func() bool { return left == 0 }) {
		s.t.Fatalf("%s with %d clients: %d unfinished", op.name, clients, left)
	}
	return float64(per*clients) / s.now.Sub(start).Seconds()
}

// figure is one throughput figure: a series per operation over a client
// grid, operations per virtual second.
type figure struct {
	id, title string
	clients   []int
	labels    []string
	perSec    [][]float64
}

func (f *figure) series(label string) []float64 { return f.perSec[slices.Index(f.labels, label)] }

func throughputFigure(t testing.TB, id, title string, p netem.Profile, clients []int, total int, ops ...paperOp) *figure {
	f := &figure{id: id, title: title, clients: clients}
	for _, op := range ops {
		s := paperSim(t, p, 3, true) // a fresh cluster per series
		var pts []float64
		for _, c := range clients {
			pts = append(pts, closedLoop(s, op, c, total))
		}
		f.labels, f.perSec = append(f.labels, op.name), append(f.perSec, pts)
	}
	return f
}

// paperResult is every §4 row in virtual time.
type paperResult struct {
	rrt    []rrtRow                 // sysnet, b2p, wan, wan n=5, wan n=7
	table1 map[string]time.Duration // "optimized/3" → TRT
	figs   map[string]*figure
}

var fig5Clients, fig6Clients = []int{1, 2, 4, 8, 16}, []int{8, 16, 32, 64, 128}

func runPaper(t testing.TB) *paperResult {
	res := &paperResult{table1: map[string]time.Duration{}, figs: map[string]*figure{}}
	for _, r := range []struct {
		name string
		p    netem.Profile
		n    int
	}{{"sysnet", netem.Sysnet(), 3}, {"b2p", netem.B2P(), 3}, {"wan", netem.WAN(0), 3},
		{"wan n=5", netem.WAN(0), 5}, {"wan n=7", netem.WAN(0), 7}} {
		res.rrt = append(res.rrt, measureRRT(t, r.name, r.p, r.n))
	}
	s := paperSim(t, netem.Sysnet(), 3, false)
	c := s.newClient()
	for _, n := range []int{3, 5} {
		for _, mode := range txnModes {
			op := txnOp(mode, n)
			c.timeOp(op)
			res.table1[op.name] = c.timeOp(op)
		}
	}
	classes := []paperOp{opRead, opWrite, opOriginal}
	for _, f := range []*figure{
		throughputFigure(t, "fig5", "Figure 5: throughput on Sysnet (req/s)", netem.Sysnet(), fig5Clients, 1000, classes...),
		throughputFigure(t, "fig6", "Figure 6: throughput on Sysnet, many clients (req/s)", netem.Sysnet(), fig6Clients, 1000, classes...),
		throughputFigure(t, "fig7", "Figure 7: throughput Berkeley→Princeton (req/s)", netem.B2P(), fig5Clients, 200, classes...),
		throughputFigure(t, "fig8", "Figure 8: throughput on WAN (req/s)", netem.WAN(0), fig5Clients, 200, classes...),
	} {
		res.figs[f.id] = f
	}
	for _, n := range []int{3, 5} {
		var ops []paperOp
		for _, mode := range txnModes {
			ops = append(ops, txnOp(mode, n))
		}
		id := map[int]string{3: "fig9a", 5: "fig9b"}[n]
		res.figs[id] = throughputFigure(t, id, fmt.Sprintf("Figure %s: transaction throughput on Sysnet, %d req/txn (txn/s)", id[3:], n),
			netem.Sysnet(), fig5Clients, 200, ops...)
	}
	return res
}

// predicate is one DESIGN.md §4 shape criterion. A model-dependent one
// fails under the calibrated service-time table (DESIGN.md §4 says why);
// it is reported, and the golden holds its series instead.
type predicate struct {
	name           string
	modelDependent bool
	check          func(p *paperResult) (bool, string)
}

// eachPoint checks cond at every client count of a figure.
func eachPoint(f *figure, cond func(i int) bool) bool {
	for i := range f.clients {
		if !cond(i) {
			return false
		}
	}
	return true
}

func fmtSeries(xs []float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.0f", x)
	}
	return b.String()
}

var predicates = []predicate{
	{"rrt.sysnet_equals_model", false, func(p *paperResult) (bool, string) { return rrtExact(p.rrt[0]) }},
	{"rrt.b2p_equals_model", false, func(p *paperResult) (bool, string) { return rrtExact(p.rrt[1]) }},
	{"rrt.wan_equals_model", false, func(p *paperResult) (bool, string) { return rrtExact(p.rrt[2]) }},
	{"rrt.sysnet_original_lt_read_lt_write", false, func(p *paperResult) (bool, string) {
		r := p.rrt[0].lo
		return r[0] < r[1] && r[1] < r[2], fmt.Sprintf("%v < %v < %v", r[0], r[1], r[2])
	}},
	{"rrt.sysnet_read_20_25pct_below_write", false, func(p *paperResult) (bool, string) {
		gap := 1 - float64(p.rrt[0].lo[1])/float64(p.rrt[0].lo[2])
		return gap >= 0.20 && gap <= 0.25, fmt.Sprintf("%.1f%% below", 100*gap)
	}},
	{"rrt.b2p_within_1.5pct", false, func(p *paperResult) (bool, string) {
		r := p.rrt[1].lo
		spread := float64(r[2]-r[0]) / float64(r[0])
		return spread <= 0.015, fmt.Sprintf("write %.2f%% above original", 100*spread)
	}},
	{"rrt.wan_write_gg_read_approx_original", false, func(p *paperResult) (bool, string) {
		r := p.rrt[2].lo
		near := float64(r[1]) / float64(r[0])
		far := float64(r[2]) / float64(r[1])
		return near <= 1.10 && far >= 1.30, fmt.Sprintf("read/original %.3f, write/read %.3f", near, far)
	}},
	{"rrt.t2_quorum_size_moves_nothing", false, func(p *paperResult) (bool, string) {
		ok := true
		for _, r := range p.rrt[3:] {
			if e, _ := rrtExact(r); !e || r.lo != p.rrt[2].lo {
				ok = false
			}
		}
		return ok, fmt.Sprintf("n=3 %v, n=5 %v, n=7 %v", p.rrt[2].lo, p.rrt[3].lo, p.rrt[4].lo)
	}},
	{"fig5.read_13pct_above_write_1_client", false, func(p *paperResult) (bool, string) {
		f := p.figs["fig5"]
		r, w := f.series("read"), f.series("write")
		return r[0] >= 1.13*w[0], fmt.Sprintf("read %.0f, write %.0f", r[0], w[0])
	}},
	{"fig5.read_13pct_above_write_every_c", true, func(p *paperResult) (bool, string) {
		f := p.figs["fig5"]
		r, w := f.series("read"), f.series("write")
		return eachPoint(f, func(i int) bool { return r[i] >= 1.13*w[i] }),
			fmt.Sprintf("read %s; write %s", fmtSeries(r), fmtSeries(w))
	}},
	{"fig6.knee_at_32_64_clients", true, func(p *paperResult) (bool, string) {
		f := p.figs["fig6"]
		var knees []string
		ok := true
		for _, label := range []string{"read", "write"} {
			k := knee(f.clients, f.series(label))
			knees = append(knees, fmt.Sprintf("%s %d", label, k))
			ok = ok && k >= 32 && k <= 64
		}
		return ok, "90% of peak first at: " + strings.Join(knees, ", ")
	}},
	{"fig7.curves_coincide", false, func(p *paperResult) (bool, string) {
		f := p.figs["fig7"]
		r, w, o := f.series("read"), f.series("write"), f.series("original")
		return eachPoint(f, func(i int) bool {
			lo, hi := min(r[i], w[i], o[i]), max(r[i], w[i], o[i])
			return hi <= 1.015*lo
		}), fmt.Sprintf("read %s; write %s; original %s", fmtSeries(r), fmtSeries(w), fmtSeries(o))
	}},
	{"fig8.read_above_write", false, func(p *paperResult) (bool, string) {
		f := p.figs["fig8"]
		r, w := f.series("read"), f.series("write")
		return eachPoint(f, func(i int) bool { return r[i] >= 1.13*w[i] }),
			fmt.Sprintf("read %s; write %s", fmtSeries(r), fmtSeries(w))
	}},
	{"table1.optimized_lt_readwrite_lt_writeonly", false, func(p *paperResult) (bool, string) {
		ok := true
		var parts []string
		for _, n := range []int{3, 5} {
			o, rw, wo := p.table1[fmt.Sprint("optimized/", n)], p.table1[fmt.Sprint("read/write/", n)], p.table1[fmt.Sprint("write-only/", n)]
			ok = ok && o < rw && rw < wo
			parts = append(parts, fmt.Sprintf("%d: %v < %v < %v", n, o, rw, wo))
		}
		return ok, strings.Join(parts, "; ")
	}},
	{"table1.improvement_grows_with_size", false, func(p *paperResult) (bool, string) {
		gain := func(n int, base string) float64 {
			return 1 - float64(p.table1[fmt.Sprint("optimized/", n)])/float64(p.table1[fmt.Sprintf("%s/%d", base, n)])
		}
		ok := gain(5, "read/write") > gain(3, "read/write") && gain(5, "write-only") > gain(3, "write-only")
		return ok, fmt.Sprintf("vs read/write %.0f%% → %.0f%%, vs write-only %.0f%% → %.0f%%",
			100*gain(3, "read/write"), 100*gain(5, "read/write"), 100*gain(3, "write-only"), 100*gain(5, "write-only"))
	}},
	{"fig9.optimized_gt_readwrite_gt_writeonly_1_client", false, func(p *paperResult) (bool, string) {
		return fig9Order(p, 1)
	}},
	{"fig9.optimized_gt_readwrite_gt_writeonly_every_c", true, func(p *paperResult) (bool, string) {
		return fig9Order(p, len(fig5Clients))
	}},
	{"fig9.improvement_grows_with_clients", true, func(p *paperResult) (bool, string) {
		ok := true
		var parts []string
		for _, id := range []string{"fig9a", "fig9b"} {
			f := p.figs[id]
			var gains []float64
			for i := range f.clients {
				gains = append(gains, 100*(f.perSec[2][i]/f.perSec[1][i]-1))
			}
			ok = ok && gains[len(gains)-1] > gains[0]
			parts = append(parts, fmt.Sprintf("%s optimized over write-only %s %%", id, fmtSeries(gains)))
		}
		return ok, strings.Join(parts, "; ")
	}},
}

// fig9Order checks optimized > read/write > write-only transaction
// throughput over the first `points` client counts of Figures 9a and 9b.
func fig9Order(p *paperResult, points int) (bool, string) {
	ok := true
	var parts []string
	for _, id := range []string{"fig9a", "fig9b"} {
		f := p.figs[id]
		rw, wo, o := f.perSec[0][:points], f.perSec[1][:points], f.perSec[2][:points]
		for i := range o {
			ok = ok && o[i] > rw[i] && rw[i] > wo[i]
		}
		parts = append(parts, fmt.Sprintf("%s optimized %s, read/write %s, write-only %s", id, fmtSeries(o), fmtSeries(rw), fmtSeries(wo)))
	}
	return ok, strings.Join(parts, "; ")
}

// rrtExact: every sample of every class equals the §3.4 model, to the
// nanosecond.
func rrtExact(r rrtRow) (bool, string) {
	return r.lo == r.model && r.hi == r.model, fmt.Sprintf("got %v..%v, model %v", r.lo, r.hi, r.model)
}

// knee is the smallest client count whose throughput reaches 90 % of the
// series maximum.
func knee(clients []int, xs []float64) int {
	top := slices.Max(xs)
	for i, x := range xs {
		if x >= 0.9*top {
			return clients[i]
		}
	}
	return 0
}

var (
	paperOnce sync.Once
	paperRes  *paperResult
)

// paper computes the §4 rows once per test binary.
func paper(t testing.TB) *paperResult {
	paperOnce.Do(func() { paperRes = runPaper(t) })
	if paperRes == nil {
		t.Fatal("the paper rows failed to build")
	}
	return paperRes
}

// renderPaper prints the §4 tables in virtual time and, with verdicts,
// each predicate's PASS/FAIL.
func renderPaper(p *paperResult, verdicts bool) string {
	var b strings.Builder
	fmt.Fprintln(&b, "§4.1 response times (virtual time; §3.4 model from the profile's link means, E = 0)")
	fmt.Fprintf(&b, "  %-8s %14s %14s %14s   %s\n", "profile", "original", "read", "write", "model original/read/write")
	for _, r := range p.rrt {
		fmt.Fprintf(&b, "  %-8s %14v %14v %14v   %v / %v / %v\n", r.name, r.lo[0], r.lo[1], r.lo[2], r.model[0], r.model[1], r.model[2])
	}
	fmt.Fprintln(&b, "Table 1: transaction response time (Sysnet, 1 client, virtual time)")
	for _, n := range []int{3, 5} {
		for _, mode := range txnModes {
			fmt.Fprintf(&b, "  %-12s %d req/txn %12v\n", mode, n, p.table1[fmt.Sprintf("%s/%d", mode, n)])
		}
	}
	for _, id := range []string{"fig5", "fig6", "fig7", "fig8", "fig9a", "fig9b"} {
		f := p.figs[id]
		fmt.Fprintf(&b, "%s, service-time model on\n  %-14s", f.title, "clients")
		for _, c := range f.clients {
			fmt.Fprintf(&b, "%9d", c)
		}
		b.WriteByte('\n')
		for i, label := range f.labels {
			fmt.Fprintf(&b, "  %-14s", label)
			for _, x := range f.perSec[i] {
				fmt.Fprintf(&b, "%9.0f", x)
			}
			b.WriteByte('\n')
		}
	}
	if !verdicts {
		return b.String()
	}
	fmt.Fprintln(&b, "Shape predicates (DESIGN.md §4)")
	for _, pr := range predicates {
		ok, detail := pr.check(p)
		verdict := "PASS"
		switch {
		case !ok && pr.modelDependent:
			verdict = "MODEL-DEPENDENT"
		case !ok:
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "  %-16s %-52s %s\n", verdict, pr.name, detail)
	}
	return b.String()
}

// TestPaper asserts every shape predicate of DESIGN.md §4 on the rows
// the simulator produces, and skips a failing model-dependent one with
// its series; with -v (`make paper`) it prints the tables.
func TestPaper(t *testing.T) {
	p := paper(t)
	if testing.Verbose() {
		fmt.Print(renderPaper(p, true))
	}
	for _, pr := range predicates {
		t.Run(pr.name, func(t *testing.T) {
			ok, detail := pr.check(p)
			switch {
			case !ok && pr.modelDependent:
				t.Skipf("model-dependent (DESIGN.md §4), the golden holds the series: %s", detail)
			case !ok:
				t.Error(detail)
			}
		})
	}
}

// TestMeasureTxnThroughput runs each transaction mode closed loop with
// two clients and requires every transaction to commit at a positive
// rate.
func TestMeasureTxnThroughput(t *testing.T) {
	for _, mode := range txnModes {
		s := paperSim(t, netem.Sysnet(), 3, true)
		if tp := closedLoop(s, txnOp(mode, 3), 2, 10); tp <= 0 || math.IsInf(tp, 0) {
			t.Errorf("%s: txn throughput = %v", mode, tp)
		}
	}
}

// TestTxnSeries checks a transaction throughput series has one positive
// point per client count, in the order given.
func TestTxnSeries(t *testing.T) {
	op := txnOp("optimized", 3)
	f := throughputFigure(t, "txn", "transaction series", netem.Sysnet(), []int{1, 2}, 8, op)
	if len(f.labels) != 1 || f.labels[0] != op.name {
		t.Fatalf("labels = %v, want [%s]", f.labels, op.name)
	}
	pts := f.series(op.name)
	if len(pts) != 2 {
		t.Fatalf("series = %v, want 2 points", pts)
	}
	for i, x := range pts {
		if x <= 0 || math.IsInf(x, 0) {
			t.Errorf("%d clients: %v txn/s", f.clients[i], x)
		}
	}
}
