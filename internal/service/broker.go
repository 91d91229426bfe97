package service

import (
	"fmt"
	"math/rand"
	"sort"

	"gridrep/internal/wire"
)

// Broker is the paper's first motivating application (§2): a distributed
// grid resource broker that "accepts requests for resources and selects
// appropriate resources", using a randomized algorithm to balance load
// across resources. The randomization — here the power-of-two-choices
// policy of the load-balancing literature the paper cites — makes the
// service intentionally nondeterministic: two replicas given the same
// request sequence select different resources. Replication therefore
// must ship the leader's post-execution state, which is exactly what the
// basic protocol does.
type Broker struct {
	rng       *rand.Rand
	resources map[string]*resource
	pinned    bool // a read view holds resources: the next write copies it
}

type resource struct {
	capacity int64
	inUse    int64
}

// NewBroker returns a broker whose randomized selections are driven by
// the given seed. Different replicas should use different seeds; the
// protocol keeps them consistent anyway.
func NewBroker(seed int64) *Broker {
	return &Broker{
		rng:       rand.New(rand.NewSource(seed)),
		resources: make(map[string]*resource),
	}
}

var _ Service = (*Broker)(nil)

// Broker opcodes.
const (
	brRegister uint8 = iota + 1
	brRequest
	brRelease
	brList
)

// BrokerRegister builds an op adding a resource with the given capacity.
func BrokerRegister(name string, capacity int64) []byte {
	enc := wire.NewEncoder(nil)
	enc.Uint8(brRegister)
	enc.String(name)
	enc.Uvarint(uint64(capacity))
	return enc.Bytes()
}

// BrokerRequest builds an op asking for n resource slots.
func BrokerRequest(n int) []byte {
	enc := wire.NewEncoder(nil)
	enc.Uint8(brRequest)
	enc.Uvarint(uint64(n))
	return enc.Bytes()
}

// BrokerRelease builds an op returning one slot on the named resource.
func BrokerRelease(name string) []byte {
	enc := wire.NewEncoder(nil)
	enc.Uint8(brRelease)
	enc.String(name)
	return enc.Bytes()
}

// BrokerList builds a read op returning "name used/capacity" lines.
func BrokerList() []byte { return []byte{brList} }

// BrokerIsWrite reports whether op mutates broker state.
func BrokerIsWrite(op []byte) bool { return len(op) > 0 && op[0] != brList }

// BrokerSelection parses a BrokerRequest reply into the selected resource
// names.
func BrokerSelection(res []byte) ([]string, error) {
	dec := wire.NewDecoder(res)
	n := dec.SliceLen()
	if dec.Err() != nil {
		return nil, dec.Err()
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, dec.String())
	}
	if err := dec.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// Execute implements Service.
func (b *Broker) Execute(op []byte) ([]byte, error) {
	if len(op) == 0 {
		return nil, ErrBadOp
	}
	dec := wire.NewDecoder(op)
	code := dec.Uint8()
	if code != brList {
		b.writable()
	}
	switch code {
	case brRegister:
		name := dec.String()
		cap := int64(dec.Uvarint())
		if err := dec.Done(); err != nil {
			return nil, err
		}
		b.resources[name] = &resource{capacity: cap}
		return nil, nil
	case brRequest:
		n := dec.Uvarint()
		if err := dec.Done(); err != nil {
			return nil, err
		}
		return b.request(n)
	case brRelease:
		name := dec.String()
		if err := dec.Done(); err != nil {
			return nil, err
		}
		r, ok := b.resources[name]
		if !ok || r.inUse == 0 {
			return nil, fmt.Errorf("%w: release of idle or unknown resource %q", ErrBadOp, name)
		}
		r.inUse--
		return nil, nil
	case brList:
		return resourceList(b.resources), nil
	default:
		return nil, fmt.Errorf("%w: broker opcode %d", ErrBadOp, code)
	}
}

// request allocates n slots with the power-of-two-choices randomized
// policy: sample two resources with free capacity, take the less loaded.
// This is the intentional nondeterminism of §2. A request the free
// capacity cannot meet, or whose selection a replay could not decode, is
// refused before anything is allocated.
func (b *Broker) request(n uint64) ([]byte, error) {
	free := make([]string, 0, len(b.resources))
	var slots uint64 // free slots, each resource's counted up to wire.MaxSlice
	for name, r := range b.resources {
		if r.inUse < r.capacity {
			free = append(free, name)
			slots += min(uint64(r.capacity-r.inUse), wire.MaxSlice)
		}
	}
	if n > slots || n > wire.MaxSlice {
		return nil, fmt.Errorf("%w: request for %d slots, %d free", ErrBadOp, n, slots)
	}
	sort.Strings(free) // stable candidate order; choice stays random
	selected := make([]string, 0, n)
	for range n {
		// Refresh the free list lazily: drop now-full entries.
		avail := free[:0]
		for _, name := range free {
			r := b.resources[name]
			if r.inUse < r.capacity {
				avail = append(avail, name)
			}
		}
		free = avail
		pick := free[b.rng.Intn(len(free))]
		if len(free) > 1 {
			alt := free[b.rng.Intn(len(free))]
			la, lb := b.resources[pick], b.resources[alt]
			if float64(lb.inUse)/float64(lb.capacity) < float64(la.inUse)/float64(la.capacity) {
				pick = alt
			}
		}
		b.resources[pick].inUse++
		selected = append(selected, pick)
	}
	enc := wire.NewEncoder(nil)
	enc.Uvarint(uint64(len(selected)))
	for _, s := range selected {
		enc.String(s)
	}
	return enc.Bytes(), nil
}

// resourceList renders the "name used/capacity" lines a list read
// returns.
func resourceList(resources map[string]*resource) []byte {
	names := make([]string, 0, len(resources))
	for n := range resources {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for _, n := range names {
		r := resources[n]
		out += fmt.Sprintf("%s %d/%d\n", n, r.inUse, r.capacity)
	}
	return []byte(out)
}

// Snapshot implements Service with a deterministic encoding. The RNG is
// deliberately not part of the state: it is the source of local
// nondeterminism, not replicated data.
func (b *Broker) Snapshot() []byte {
	names := make([]string, 0, len(b.resources))
	for n := range b.resources {
		names = append(names, n)
	}
	sort.Strings(names)
	enc := wire.NewEncoder(nil)
	enc.Uvarint(uint64(len(names)))
	for _, n := range names {
		r := b.resources[n]
		enc.String(n)
		enc.Uvarint(uint64(r.capacity))
		enc.Uvarint(uint64(r.inUse))
	}
	return enc.Bytes()
}

// Restore implements Service.
func (b *Broker) Restore(snap []byte) error {
	dec := wire.NewDecoder(snap)
	n := dec.SliceLen()
	if dec.Err() != nil {
		return dec.Err()
	}
	res := make(map[string]*resource, n)
	for i := 0; i < n; i++ {
		name := dec.String()
		cap := int64(dec.Uvarint())
		inUse := int64(dec.Uvarint())
		res[name] = &resource{capacity: cap, inUse: inUse}
	}
	if err := dec.Done(); err != nil {
		return err
	}
	b.resources, b.pinned = res, false
	return nil
}

// Load returns (inUse, capacity) for a resource (for tests).
func (b *Broker) Load(name string) (int64, int64) {
	r, ok := b.resources[name]
	if !ok {
		return 0, 0
	}
	return r.inUse, r.capacity
}

// Broker implements Replayer: the only nondeterministic operation is the
// randomized resource selection, and it is fully reproduced by the list
// of resources the leader actually picked — exactly §3.3's "request and
// some additional information" reduction.
var _ Replayer = (*Broker)(nil)

// ExecuteCapture implements Replayer. For brRequest the aux is the
// selection itself (which doubles as the reply); all other broker
// operations are deterministic and carry no aux.
func (b *Broker) ExecuteCapture(op []byte) (reply, aux []byte, err error) {
	reply, err = b.Execute(op)
	if err != nil {
		return nil, nil, err
	}
	if len(op) > 0 && op[0] == brRequest {
		aux = reply
	}
	return reply, aux, nil
}

// Replay implements Replayer: it applies the leader's captured selection
// instead of drawing fresh random numbers.
func (b *Broker) Replay(op, aux []byte) ([]byte, error) {
	if len(op) == 0 {
		return nil, ErrBadOp
	}
	if op[0] != brRequest {
		return b.Execute(op)
	}
	selected, err := BrokerSelection(aux)
	if err != nil {
		return nil, err
	}
	// The whole selection is checked before any slot is taken, so a
	// refused replay changes nothing.
	picks := make(map[string]int64, len(selected))
	for _, name := range selected {
		picks[name]++
		r, ok := b.resources[name]
		if !ok || picks[name] > r.capacity-r.inUse {
			return nil, fmt.Errorf("%w: replay selection %q invalid", ErrBadOp, name)
		}
	}
	b.writable()
	for name, k := range picks {
		b.resources[name].inUse += k
	}
	return aux, nil
}

// Broker implements ReadViewer by copy-on-write: a view shares the
// resource map, and the first write after a pin copies it with its
// records, which a request or release changes in place (writable).
var _ ReadViewer = (*Broker)(nil)

type brokerView struct{ resources map[string]*resource }

// ReadView implements ReadViewer.
func (b *Broker) ReadView() (ReadView, bool) {
	b.pinned = true
	return brokerView{b.resources}, true
}

// writable copies the resources if a view may hold them.
func (b *Broker) writable() {
	if !b.pinned {
		return
	}
	c := make(map[string]*resource, len(b.resources))
	for name, r := range b.resources {
		cp := *r
		c[name] = &cp
	}
	b.resources, b.pinned = c, false
}

// ReadExecute implements ReadView: a list read only.
func (v brokerView) ReadExecute(op []byte) ([]byte, error) {
	if len(op) == 0 || op[0] != brList {
		return nil, fmt.Errorf("%w: broker op on a read-only view", ErrBadOp)
	}
	return resourceList(v.resources), nil
}
