package service

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/bits"
	"slices"

	"gridrep/internal/wire"
)

// KV is a replicated key-value store with native transaction support:
// per-key locks acquired first-come (a transaction touching a key another
// open transaction holds gets ErrConflict and aborts, the "locks or other
// mechanisms" of §3.5).
//
// Operation payloads are built with KVPut/KVGet/KVDelete/KVAdd and
// replies parsed with KVReply.
//
// The state is split into kvBuckets maps by a hash of the key, each
// copied on write on its own (DESIGN.md §14): a write after a read view
// was pinned copies the one bucket it touches, not the whole store.
type KV struct {
	buckets [kvBuckets]map[string][]byte // nil until a key lands there
	// pinned has bit b set while a view may hold buckets[b]: the next
	// write to that bucket copies it first, so view holders keep reading
	// the pinned state race-free. Values are never mutated in place
	// (every put stores a fresh slice), so sharing the value slices
	// between generations is safe.
	pinned [kvBuckets / 64]uint64
	view   *kvView           // the current generation's view; nil once written
	locks  map[string]uint64 // key -> owning transaction
	open   map[uint64]*kvWS
}

// kvBuckets is the number of copy-on-write units: a pin copies
// kvBuckets map pointers (2 KB), and a write after a pin copies about
// 1/kvBuckets of the keys. It is a constant, not an option; no encoding
// depends on it (DESIGN.md §14).
const kvBuckets = 256

// kvBucket returns key's bucket: the low byte of its FNV-1a hash.
func kvBucket(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % kvBuckets)
}

// NewKV returns an empty store.
func NewKV() *KV {
	return &KV{
		locks: make(map[string]uint64),
		open:  make(map[uint64]*kvWS),
	}
}

// get reads key from the live state.
func (s *KV) get(key string) ([]byte, bool) {
	v, ok := s.buckets[kvBucket(key)][key]
	return v, ok
}

// put and del write the live state through writable.
func (s *KV) put(key string, value []byte) { s.writable(key)[key] = value }
func (s *KV) del(key string)               { delete(s.writable(key), key) }

// writable returns key's bucket ready for a write, first copying it if a
// view may hold it, and ends the cached view's generation. Only the
// event loop calls it.
func (s *KV) writable(key string) map[string][]byte {
	b := kvBucket(key)
	s.view = nil
	m := s.buckets[b]
	if bit := uint64(1) << (b % 64); m == nil || s.pinned[b/64]&bit != 0 {
		c := make(map[string][]byte, len(m)+1)
		for k, v := range m {
			c[k] = v
		}
		s.buckets[b], m = c, c
		s.pinned[b/64] &^= bit
	}
	return m
}

var (
	_ Service       = (*KV)(nil)
	_ Transactional = (*KV)(nil)
)

// KV operation opcodes.
const (
	kvGet uint8 = iota + 1
	kvPut
	kvDel
	kvAdd
)

// KVGet builds a read of key.
func KVGet(key string) []byte { return kvOp(kvGet, key, nil) }

// KVPut builds a write of key=value.
func KVPut(key string, value []byte) []byte { return kvOp(kvPut, key, value) }

// KVDelete builds a deletion of key.
func KVDelete(key string) []byte { return kvOp(kvDel, key, nil) }

// KVAdd builds an atomic integer addition: the key's value is parsed as a
// little-endian int64 (missing key = 0), delta is added, and the new
// value is stored and returned.
func KVAdd(key string, delta int64) []byte {
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], uint64(delta))
	return kvOp(kvAdd, key, v[:])
}

func kvOp(code uint8, key string, value []byte) []byte {
	enc := wire.NewEncoder(nil)
	enc.Uint8(code)
	enc.String(key)
	enc.Bytes8(value)
	return enc.Bytes()
}

func kvParse(op []byte) (code uint8, key string, value []byte, err error) {
	dec := wire.NewDecoder(op)
	code = dec.Uint8()
	key = dec.String()
	value = dec.Bytes8()
	if e := dec.Done(); e != nil {
		return 0, "", nil, fmt.Errorf("%w: %v", ErrBadOp, e)
	}
	if code < kvGet || code > kvAdd {
		return 0, "", nil, fmt.Errorf("%w: opcode %d", ErrBadOp, code)
	}
	if code == kvAdd && len(value) != 8 {
		return 0, "", nil, fmt.Errorf("%w: add of a %d-byte value", ErrBadOp, len(value))
	}
	return code, key, value, nil
}

// KVReply parses a reply payload into (value, found).
func KVReply(res []byte) (value []byte, found bool) {
	dec := wire.NewDecoder(res)
	found = dec.Bool()
	value = dec.Bytes8()
	if dec.Done() != nil {
		return nil, false
	}
	return value, found
}

// KVInt parses an integer reply (from KVAdd or KVGet of an integer key).
func KVInt(res []byte) (int64, bool) {
	v, ok := KVReply(res)
	if !ok || len(v) != 8 {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint64(v)), true
}

func kvReply(value []byte, found bool) []byte {
	enc := wire.NewEncoder(make([]byte, 0, 1+uvarintLen(len(value))+len(value)))
	enc.Bool(found)
	enc.Bytes8(value)
	return enc.Bytes()
}

// IsWriteOp reports whether op mutates the store — callers use it to pick
// wire.KindWrite vs wire.KindRead.
func IsWriteOp(op []byte) bool {
	if len(op) == 0 {
		return false
	}
	return op[0] != kvGet
}

// applyTo runs one parsed op against a read/write view.
func kvApply(code uint8, key string, value []byte, get func(string) ([]byte, bool),
	put func(string, []byte), del func(string)) []byte {
	switch code {
	case kvGet:
		v, ok := get(key)
		return kvReply(v, ok)
	case kvPut:
		put(key, value)
		return kvReply(nil, true)
	case kvDel:
		_, ok := get(key)
		del(key)
		return kvReply(nil, ok)
	case kvAdd:
		cur, _ := get(key)
		var n int64
		if len(cur) == 8 {
			n = int64(binary.LittleEndian.Uint64(cur))
		}
		n += int64(binary.LittleEndian.Uint64(value))
		var out [8]byte
		binary.LittleEndian.PutUint64(out[:], uint64(n))
		nv := out[:]
		put(key, nv)
		return kvReply(nv, true)
	}
	return nil
}

// Execute implements Service.
func (s *KV) Execute(op []byte) ([]byte, error) {
	code, key, value, err := kvParse(op)
	if err != nil {
		return nil, err
	}
	if owner, locked := s.locks[key]; locked {
		// A non-transactional op hitting a locked key conflicts; §3.5's
		// lock discipline applies to singleton operations too.
		return nil, fmt.Errorf("%w: key %q locked by txn %d", ErrConflict, key, owner)
	}
	return kvApply(code, key, value, s.get, s.put, s.del), nil
}

// uvarintLen is the encoded size of v as a wire uvarint.
func uvarintLen(v int) int { return (bits.Len64(uint64(v)|1) + 6) / 7 }

// Snapshot implements Service with a deterministic (sorted) encoding,
// into one buffer sized before encoding.
func (s *KV) Snapshot() []byte { return encodeKV(&s.buckets) }

// encodeKV encodes a bucket array: every key in sorted order with its
// value. It only reads the buckets, so a view's may be encoded from any
// goroutine.
func encodeKV(buckets *[kvBuckets]map[string][]byte) []byte {
	n := 0
	for _, m := range buckets {
		n += len(m)
	}
	keys := make([]string, 0, n)
	size := 0
	for _, m := range buckets {
		for k, v := range m {
			keys = append(keys, k)
			size += uvarintLen(len(k)) + len(k) + uvarintLen(len(v)) + len(v)
		}
	}
	slices.Sort(keys)
	enc := wire.NewEncoder(make([]byte, 0, uvarintLen(len(keys))+size))
	enc.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		enc.String(k)
		enc.Bytes8(buckets[kvBucket(k)][k])
	}
	return enc.Bytes()
}

// Restore implements Service. Open transactions are discarded: a restore
// happens only on state transfer, when local speculation is void anyway.
// Their workspaces are finished without touching the new state, so a
// late Execute, Commit or CommitDelta on one fails and changes nothing.
func (s *KV) Restore(snap []byte) error {
	dec := wire.NewDecoder(snap)
	n := dec.SliceLen()
	if dec.Err() != nil {
		return dec.Err()
	}
	var buckets [kvBuckets]map[string][]byte
	for i := 0; i < n && dec.Err() == nil; i++ {
		k := dec.String()
		v := dec.Bytes8()
		b := &buckets[kvBucket(k)]
		if *b == nil {
			*b = make(map[string][]byte, n/kvBuckets+1)
		}
		(*b)[k] = v
	}
	if err := dec.Done(); err != nil {
		return err
	}
	// Brand-new buckets: pinned views keep the old ones.
	s.buckets, s.pinned, s.view = buckets, [kvBuckets / 64]uint64{}, nil
	for _, w := range s.open {
		w.done = true // its locks go with the old lock table
	}
	s.locks = make(map[string]uint64)
	s.open = make(map[uint64]*kvWS)
	return nil
}

// Len returns the number of keys.
func (s *KV) Len() int {
	n := 0
	for _, m := range s.buckets {
		n += len(m)
	}
	return n
}

// Begin implements Transactional.
func (s *KV) Begin(txn uint64) (Workspace, error) {
	if _, dup := s.open[txn]; dup {
		return nil, fmt.Errorf("%w: transaction %d already open", ErrConflict, txn)
	}
	w := &kvWS{s: s, txn: txn, overlay: make(map[string][]byte), deleted: make(map[string]bool)}
	s.open[txn] = w
	return w, nil
}

type kvWS struct {
	s       *KV
	txn     uint64
	held    []string
	overlay map[string][]byte
	deleted map[string]bool
	done    bool
}

// lock acquires key for this transaction or reports a conflict.
func (w *kvWS) lock(key string) error {
	owner, locked := w.s.locks[key]
	if locked && owner != w.txn {
		return fmt.Errorf("%w: key %q held by txn %d", ErrConflict, key, owner)
	}
	if !locked {
		w.s.locks[key] = w.txn
		w.held = append(w.held, key)
		w.s.view = nil // the cached view recorded the old lock table
	}
	return nil
}

func (w *kvWS) Execute(op []byte) ([]byte, error) {
	if w.done {
		return nil, fmt.Errorf("%w: transaction finished", ErrConflict)
	}
	code, key, value, err := kvParse(op)
	if err != nil {
		return nil, err
	}
	if err := w.lock(key); err != nil {
		return nil, err
	}
	res := kvApply(code, key, value,
		func(k string) ([]byte, bool) {
			if w.deleted[k] {
				return nil, false
			}
			if v, ok := w.overlay[k]; ok {
				return v, true
			}
			return w.s.get(k)
		},
		func(k string, v []byte) { w.overlay[k] = v; delete(w.deleted, k) },
		func(k string) { delete(w.overlay, k); w.deleted[k] = true })
	return res, nil
}

func (w *kvWS) Commit() error {
	_, err := w.s.CommitDelta(w)
	return err
}

// CommitDelta implements Differ: a transaction commits by encoding its
// write set as a delta and applying that, the path backups take too.
func (s *KV) CommitDelta(ws Workspace) ([]byte, error) {
	w := ws.(*kvWS) // a workspace from this store's Begin, by contract
	if w.done {
		return nil, fmt.Errorf("%w: transaction finished", ErrConflict)
	}
	enc := wire.NewEncoder(nil)
	enc.Uvarint(uint64(len(w.overlay) + len(w.deleted)))
	for k, v := range w.overlay {
		enc.Bool(true)
		enc.String(k)
		enc.Bytes8(v)
	}
	for k := range w.deleted {
		enc.Bool(false)
		enc.String(k)
	}
	w.finish()
	return enc.Bytes(), s.ApplyDelta(enc.Bytes())
}

func (w *kvWS) Abort() {
	if w.done {
		return
	}
	w.finish()
}

func (w *kvWS) finish() {
	w.done = true
	if len(w.held) > 0 {
		w.s.view = nil
	}
	for _, k := range w.held {
		if w.s.locks[k] == w.txn {
			delete(w.s.locks, k)
		}
	}
	delete(w.s.open, w.txn)
}

// KV implements ReadViewer by copy-on-write: ReadView pins the current
// bucket array; the next write to a bucket copies that bucket
// (writable), so view holders keep stable, never-again-written maps with
// zero per-read cost.
var (
	_ ReadViewer   = (*KV)(nil)
	_ SnapshotView = (*kvView)(nil)
)

// ReadView implements ReadViewer. A generation's view is built once and
// returned until the next write or lock change. It records the lock
// table held at the pin, so a read of a key an open transaction has
// locked answers the §3.5 conflict from the view as Execute does.
func (s *KV) ReadView() (ReadView, bool) {
	if s.view == nil {
		s.view = &kvView{buckets: s.buckets}
		if len(s.locks) > 0 {
			s.view.locks = maps.Clone(s.locks)
		}
		for i := range s.pinned {
			s.pinned[i] = ^uint64(0)
		}
	}
	return s.view, true
}

// kvView is a pinned KV state generation. Safe for concurrent
// ReadExecute and Snapshot calls: its buckets and locks are never
// written after pinning.
type kvView struct {
	buckets [kvBuckets]map[string][]byte
	locks   map[string]uint64 // held at the pin; nil when none was
}

// ReadExecute implements ReadView: kvGet only — every other opcode
// mutates and must be rejected, not silently applied to a frozen copy.
func (v *kvView) ReadExecute(op []byte) ([]byte, error) {
	code, key, _, err := kvParse(op)
	if err != nil {
		return nil, err
	}
	if code != kvGet {
		return nil, fmt.Errorf("%w: opcode %d on read-only view", ErrBadOp, code)
	}
	if owner, locked := v.locks[key]; locked {
		return nil, fmt.Errorf("%w: key %q locked by txn %d", ErrConflict, key, owner)
	}
	val, ok := v.buckets[kvBucket(key)][key]
	return kvReply(val, ok), nil
}

// Snapshot implements SnapshotView: the KV's Snapshot at the pin.
func (v *kvView) Snapshot() []byte { return encodeKV(&v.buckets) }

// KVFactory is a Factory for the key-value store.
func KVFactory() Service { return NewKV() }

// KV implements Differ: each operation's effect is a small set of key
// updates, so deltas stay tiny even when the full store is large (§3.3's
// "exchange only the updated state").
var _ Differ = (*KV)(nil)

// ExecuteDelta implements Differ.
func (s *KV) ExecuteDelta(op []byte) (reply, delta []byte, err error) {
	code, key, value, err := kvParse(op)
	if err != nil {
		return nil, nil, err
	}
	if owner, locked := s.locks[key]; locked {
		return nil, nil, fmt.Errorf("%w: key %q locked by txn %d", ErrConflict, key, owner)
	}
	// An op changes at most one key, so the change count is one byte:
	// reserved first, filled in last, in one buffer sized for the change.
	n := max(len(value), 8) // an add stores 8 bytes
	enc := wire.NewEncoder(make([]byte, 1, 2+uvarintLen(len(key))+len(key)+uvarintLen(n)+n))
	var changes byte
	res := kvApply(code, key, value, s.get,
		func(k string, v []byte) {
			s.put(k, v)
			enc.Bool(true) // put
			enc.String(k)
			enc.Bytes8(v)
			changes++
		},
		func(k string) {
			s.del(k)
			enc.Bool(false) // delete
			enc.String(k)
			changes++
		})
	delta = enc.Bytes()
	delta[0] = changes
	return res, delta, nil
}

// kvChange is one decoded delta entry: a put of value, or a delete.
type kvChange struct {
	key   string
	value []byte
	put   bool
}

// ApplyDelta implements Differ. The whole delta is decoded and checked
// before any entry is applied, so a refused delta changes nothing.
func (s *KV) ApplyDelta(delta []byte) error {
	dec := wire.NewDecoder(delta)
	n := dec.SliceLen()
	var small [4]kvChange // a write's delta has one entry
	changes := small[:0]
	for i := 0; i < n && dec.Err() == nil; i++ {
		c := kvChange{put: dec.Bool(), key: dec.String()}
		if c.put {
			c.value = dec.Bytes8()
		}
		changes = append(changes, c)
	}
	if err := dec.Done(); err != nil {
		return err
	}
	for _, c := range changes {
		if c.put {
			s.put(c.key, c.value)
		} else {
			s.del(c.key)
		}
	}
	return nil
}
