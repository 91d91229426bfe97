package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Kind classifies a registered instrument.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Instrumented is implemented by components that own instruments and can
// publish them into a registry (storage.File, transport.TCP). The core
// replica probes its store and transport for this interface, so one
// registry per replica covers every layer.
type Instrumented interface {
	RegisterMetrics(*Registry)
}

// entry is one registered instrument.
type entry struct {
	name, help string
	kind       Kind
	counter    *Counter
	gauge      *Gauge
	gaugeFn    func() int64
	hist       *Histogram
}

// Registry is a named collection of instruments. Registration is
// mutex-guarded (it happens at assembly time); reading instruments goes
// straight to their atomics, and Snapshot only locks to copy the entry
// list. Names must be unique; registering a duplicate panics, since it
// is always an assembly-time bug.
type Registry struct {
	mu      sync.Mutex
	entries []entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(e entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, cur := range r.entries {
		if cur.name == e.name {
			panic(fmt.Sprintf("metrics: duplicate registration of %q", e.name))
		}
	}
	r.entries = append(r.entries, e)
}

// Counter creates and registers a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.RegisterCounter(name, help, c)
	return c
}

// Gauge creates and registers a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.RegisterGauge(name, help, g)
	return g
}

// Histogram creates and registers a histogram of the given unit.
func (r *Registry) Histogram(name, help string, unit Unit) *Histogram {
	h := NewHistogram(unit)
	r.RegisterHistogram(name, help, h)
	return h
}

// RegisterCounter registers an existing counter under name.
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	r.add(entry{name: name, help: help, kind: KindCounter, counter: c})
}

// RegisterGauge registers an existing gauge under name.
func (r *Registry) RegisterGauge(name, help string, g *Gauge) {
	r.add(entry{name: name, help: help, kind: KindGauge, gauge: g})
}

// RegisterGaugeFunc registers a gauge computed on demand (queue depths,
// values mirrored from atomics elsewhere). fn must be safe to call from
// any goroutine.
func (r *Registry) RegisterGaugeFunc(name, help string, fn func() int64) {
	r.add(entry{name: name, help: help, kind: KindGauge, gaugeFn: fn})
}

// RegisterHistogram registers an existing histogram under name.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.add(entry{name: name, help: help, kind: KindHistogram, hist: h})
}

// Metric is one instrument's state inside a Snapshot.
type Metric struct {
	Name  string
	Help  string
	Kind  Kind
	Value int64         // counter (cast) or gauge value
	Hist  *HistSnapshot // histograms only
}

// Snapshot captures every registered instrument. It is the one read
// surface for every layer's counters; no layer keeps a stats struct.
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	entries := append([]entry{}, r.entries...)
	r.mu.Unlock()
	out := make([]Metric, 0, len(entries))
	for _, e := range entries {
		m := Metric{Name: e.name, Help: e.help, Kind: e.kind}
		switch e.kind {
		case KindCounter:
			m.Value = int64(e.counter.Load())
		case KindGauge:
			if e.gaugeFn != nil {
				m.Value = e.gaugeFn()
			} else {
				m.Value = e.gauge.Load()
			}
		case KindHistogram:
			s := e.hist.Snapshot()
			m.Hist = &s
		}
		out = append(out, m)
	}
	return out
}

// Find returns the snapshot metric with the given name, if registered.
func Find(snap []Metric, name string) (Metric, bool) {
	for _, m := range snap {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Value reads one counter or gauge by name: 0 when no such instrument
// is registered. It snapshots the registry, so it suits status lines and
// tests, not hot paths.
func (r *Registry) Value(name string) int64 {
	m, _ := Find(r.Snapshot(), name)
	return m.Value
}

// promValue renders a native-unit value for Prometheus: seconds for
// nanosecond histograms, the raw value otherwise.
func promValue(u Unit, v float64) string {
	if u == UnitNanoseconds {
		v /= 1e9
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (text/plain; version 0.0.4). Histograms emit cumulative
// `_bucket{le=...}` lines plus `_sum` and `_count`, with nanosecond
// units converted to seconds as Prometheus convention requires.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, m := range r.Snapshot() {
		if m.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, m.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind); err != nil {
			return err
		}
		if m.Kind != KindHistogram {
			if _, err := fmt.Fprintf(w, "%s %d\n", m.Name, m.Value); err != nil {
				return err
			}
			continue
		}
		s := m.Hist
		var cum uint64
		for i, c := range s.Counts {
			cum += c
			// Collapse empty leading/trailing buckets would change the
			// schema between scrapes; emit only non-empty buckets plus
			// +Inf, which Prometheus accepts (cumulative counts carry
			// the information).
			if c == 0 && i != len(s.Counts)-1 {
				continue
			}
			le := "+Inf"
			if i != len(s.Counts)-1 {
				_, hi := bucketBounds(i)
				le = promValue(s.Unit, hi)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.Name, le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n", m.Name, promValue(s.Unit, float64(s.Sum))); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count %d\n", m.Name, s.Count); err != nil {
			return err
		}
	}
	return nil
}

// jsonMetric is the machine-readable form of one instrument.
type jsonMetric struct {
	Name  string    `json:"name"`
	Kind  string    `json:"kind"`
	Value *int64    `json:"value,omitempty"`
	Hist  *jsonHist `json:"histogram,omitempty"`
}

type jsonHist struct {
	Unit  string  `json:"unit"`
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// WriteJSON renders the registry as a JSON object keyed by metric name
// order (an array, preserving registration order).
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	out := make([]jsonMetric, 0, len(snap))
	for _, m := range snap {
		jm := jsonMetric{Name: m.Name, Kind: m.Kind.String()}
		if m.Kind == KindHistogram {
			s := m.Hist
			jm.Hist = &jsonHist{
				Unit:  s.Unit.String(),
				Count: s.Count,
				Sum:   s.Sum,
				Mean:  s.Mean(),
				P50:   s.P50(),
				P95:   s.P95(),
				P99:   s.P99(),
			}
		} else {
			v := m.Value
			jm.Value = &v
		}
		out = append(out, jm)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Names returns the registered metric names, sorted (test helper).
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e.name)
	}
	sort.Strings(out)
	return out
}
