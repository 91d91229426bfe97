package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridrep/internal/netem"
	"gridrep/internal/service"
	"gridrep/internal/storage"
	"gridrep/internal/wire"
)

// The traced run measures layers from outside the program: wrappers the
// driver installs through the deployment's own seams time the calls into
// the service and the store, and the in-process network's tracer hook
// reports every delivered message. Spans are kept in memory and written
// out when the run ends.

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the run epoch.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Bytes    int    `json:"bytes,omitempty"` // encoded size (network spans)
	Client   uint32 `json:"client,omitempty"`
	Seq      uint64 `json:"seq,omitempty"`
	Instance uint64 `json:"instance,omitempty"`
}

// Span names, in the order the budget sweep prefers them when spans
// overlap: time is charged to the most local work going on.
const (
	spanExecute = "service.execute"
	spanFlush   = "storage.flush"
	spanPut     = "storage.put"
	spanNet     = "net.deliver." // + message type
	spanRoot    = "client.op"
)

// recorder collects spans while on. Wrapped calls cost one atomic load
// when it is off, so the untraced phases of a traced run stay comparable.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

// begin returns the start time of a span, or the zero time when off.
func (r *recorder) begin() time.Time {
	if !r.on.Load() {
		return time.Time{}
	}
	return time.Now()
}

func (r *recorder) end(name string, t0 time.Time) {
	if t0.IsZero() {
		return
	}
	r.add(span{Name: name, Start: int64(t0.Sub(r.epoch)), End: int64(time.Since(r.epoch))})
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// tracedKV times the calls core makes into the key-value store. It embeds
// the concrete type, so it offers core exactly the optional interfaces KV
// does (Transactional, Differ, ReadViewer, Sharder) and core picks the
// same state mode and read pool as without it.
type tracedKV struct {
	*service.KV
	rec *recorder
}

func (s *tracedKV) Execute(op []byte) ([]byte, error) {
	t0 := s.rec.begin()
	res, err := s.KV.Execute(op)
	s.rec.end(spanExecute, t0)
	return res, err
}

func (s *tracedKV) ExecuteDelta(op []byte) ([]byte, []byte, error) {
	t0 := s.rec.begin()
	res, delta, err := s.KV.ExecuteDelta(op)
	s.rec.end(spanExecute, t0)
	return res, delta, err
}

func (s *tracedKV) ReadView() (service.ReadView, bool) {
	v, ok := s.KV.ReadView()
	if !ok {
		return nil, false
	}
	return tracedView{v, s.rec}, true
}

type tracedView struct {
	service.ReadView
	rec *recorder
}

func (v tracedView) ReadExecute(op []byte) ([]byte, error) {
	t0 := v.rec.begin()
	res, err := v.ReadView.ReadExecute(op)
	v.rec.end(spanExecute, t0)
	return res, err
}

// tracedSched is the scheduler's wrapper: Service and Replayer, like the
// type it embeds.
type tracedSched struct {
	*service.Sched
	rec *recorder
}

func (s *tracedSched) Execute(op []byte) ([]byte, error) {
	t0 := s.rec.begin()
	res, err := s.Sched.Execute(op)
	s.rec.end(spanExecute, t0)
	return res, err
}

func (s *tracedSched) ExecuteCapture(op []byte) ([]byte, []byte, error) {
	t0 := s.rec.begin()
	res, aux, err := s.Sched.ExecuteCapture(op)
	s.rec.end(spanExecute, t0)
	return res, aux, err
}

// tracedStore times the two store calls on a write's path. Embedding the
// file store forwards Flusher and metrics.Instrumented, which core probes
// for.
type tracedStore struct {
	*storage.File
	rec *recorder
}

func (s *tracedStore) PutAccepted(entries []wire.Entry, maxAccepted wire.Ballot) error {
	t0 := s.rec.begin()
	err := s.File.PutAccepted(entries, maxAccepted)
	s.rec.end(spanPut, t0)
	return err
}

func (s *tracedStore) Flush() error {
	t0 := s.rec.begin()
	err := s.File.Flush()
	s.rec.end(spanFlush, t0)
	return err
}

// netTracer is the in-process network's tracer hook. It always counts
// delivered messages; while the recorder is on it also records a span per
// message on a request's path. The fabric reports when a message was
// delivered, not when it was sent, so a span starts the link's mean
// one-way delay before the delivery instant.
type netTracer struct {
	rec       *recorder
	model     *netem.Model
	delivered atomic.Uint64 // every message
	requests  atomic.Uint64 // client requests (one per replica per broadcast)
	buf       []byte        // delivery goroutine only
}

func (t *netTracer) observe(at time.Time, env *wire.Envelope) {
	t.delivered.Add(1)
	if env.Msg.Type() == wire.MsgRequest {
		t.requests.Add(1)
	}
	if !t.rec.on.Load() {
		return
	}
	s := span{Name: spanNet + env.Msg.Type().String()}
	switch m := env.Msg.(type) {
	case *wire.RequestMsg:
		s.Client, s.Seq = uint32(m.Req.Client), m.Req.Seq
	case *wire.ReplyMsg:
		s.Client, s.Seq = uint32(m.Rep.Client), m.Rep.Seq
	case *wire.Accept:
		if len(m.Entries) == 0 || len(m.Entries[0].Prop.Reqs) == 0 {
			return
		}
		// One closed-loop client: a wave carries one request (or one
		// transaction); its last request names the operation.
		reqs := m.Entries[0].Prop.Reqs
		s.Client, s.Seq = uint32(reqs[len(reqs)-1].Client), reqs[len(reqs)-1].Seq
		s.Instance = m.Entries[0].Instance
	case *wire.Accepted:
		if len(m.Instances) == 0 {
			return
		}
		s.Instance = m.Instances[0]
	case *wire.Confirm:
		if len(m.Reads) == 0 {
			return
		}
		s.Client, s.Seq = uint32(m.Reads[0].Client), m.Reads[0].Seq
	default:
		return // heartbeats, commits, catch-up: not on a request's path
	}
	t.buf = wire.EncodeEnvelope(t.buf[:0], env)
	s.Bytes = len(t.buf)
	delay := t.model.MeanLatency(t.model.ClassOf(env.From), t.model.ClassOf(env.To))
	s.End = int64(at.Sub(t.rec.epoch))
	s.Start = s.End - int64(delay)
	t.rec.add(s)
}

// budget is the per-operation time budget of one latency class: mean
// self time per layer, what no span covers, and their sum.
type budget struct {
	Ops          int                `json:"ops"`
	MeanUS       float64            `json:"client_observed_mean_us"`
	SelfUS       map[string]float64 `json:"self_us"`
	Unattributed float64            `json:"core.unattributed_us"`
	BytesPerOp   float64            `json:"net_bytes_per_op"`
}

// rank orders overlapping spans: the lowest rank is charged.
func rank(name string) int {
	switch name {
	case spanExecute:
		return 0
	case spanFlush:
		return 1
	case spanPut:
		return 2
	default:
		return 3
	}
}

// selfTimes charges every instant of [start, end) to the best-ranked span
// covering it, or to "" when none does, so the parts sum to end − start
// exactly.
func selfTimes(start, end int64, children []span) map[string]int64 {
	type edge struct {
		at   int64
		open bool
		s    *span
	}
	var edges []edge
	for i := range children {
		c := &children[i]
		lo, hi := c.Start, c.End
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			edges = append(edges, edge{lo, true, c}, edge{hi, false, c})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	out := map[string]int64{}
	active := map[*span]bool{}
	cur := start
	charge := func(to int64) {
		if to <= cur {
			return
		}
		best := ""
		for s := range active {
			if best == "" || rank(s.Name) < rank(best) || (rank(s.Name) == rank(best) && s.Name < best) {
				best = s.Name
			}
		}
		out[best] += to - cur
		cur = to
	}
	for _, e := range edges {
		charge(e.at)
		if e.open {
			active[e.s] = true
		} else {
			delete(active, e.s)
		}
	}
	charge(end)
	return out
}

// budgets attributes the recorded spans to the operations of one
// closed-loop client and averages per latency class. Network spans match
// an operation by client and sequence number (accepted messages by the
// instance their accept carried); service and store spans match by
// containment, which is unambiguous because the client has one operation
// outstanding.
func budgets(ops []opRecord, clientID uint32, spans []span) map[string]*budget {
	sort.Slice(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })
	find := func(seq uint64) int {
		i := sort.Search(len(ops), func(i int) bool { return ops[i].SeqHi >= seq })
		if i < len(ops) && ops[i].SeqLo <= seq {
			return i
		}
		return -1
	}
	children := make([][]span, len(ops))
	instanceOp := map[uint64]int{}
	var accepted, local []span
	for _, s := range spans {
		switch {
		case s.Name == spanNet+"accepted":
			accepted = append(accepted, s)
		case s.Seq != 0:
			if s.Client != clientID {
				continue
			}
			if i := find(s.Seq); i >= 0 {
				children[i] = append(children[i], s)
				if s.Instance != 0 {
					instanceOp[s.Instance] = i
				}
			}
		default:
			local = append(local, s)
		}
	}
	for _, s := range accepted {
		if i, ok := instanceOp[s.Instance]; ok {
			children[i] = append(children[i], s)
		}
	}
	for _, s := range local {
		i := sort.Search(len(ops), func(i int) bool { return ops[i].End >= s.End })
		if i < len(ops) && ops[i].Start <= s.Start {
			children[i] = append(children[i], s)
		}
	}
	className := map[opClass]string{classRead: "read", classWrite: "write", classTxn: "txn"}
	out := map[string]*budget{}
	totals := map[string]map[string]int64{}
	for i, op := range ops {
		if op.Failed {
			continue
		}
		name := className[op.Kind.class()]
		b := out[name]
		if b == nil {
			b = &budget{SelfUS: map[string]float64{}}
			out[name] = b
			totals[name] = map[string]int64{}
		}
		b.Ops++
		b.MeanUS += float64(op.End-op.Start) / 1e3
		for layer, ns := range selfTimes(op.Start, op.End, children[i]) {
			totals[name][layer] += ns
		}
		for _, c := range children[i] {
			b.BytesPerOp += float64(c.Bytes)
		}
	}
	for name, b := range out {
		n := float64(b.Ops)
		b.MeanUS /= n
		b.BytesPerOp /= n
		for layer, ns := range totals[name] {
			if layer == "" {
				b.Unattributed = float64(ns) / 1e3 / n
			} else {
				b.SelfUS[layer] = float64(ns) / 1e3 / n
			}
		}
	}
	return out
}

// traceFile is what a traced run writes to out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Note     string             `json:"note"`
	Budgets  map[string]*budget `json:"budgets"`
	Spans    []span             `json:"spans"`
}

// maxSpansWritten bounds the trace file; the budgets always cover every
// traced operation.
const maxSpansWritten = 20000

func writeTrace(outDir string, tf traceFile) (string, error) {
	if len(tf.Spans) > maxSpansWritten {
		tf.Spans = tf.Spans[:maxSpansWritten]
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+tf.Workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
