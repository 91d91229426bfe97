package service

import (
	"encoding/binary"
	"fmt"
	"sort"

	"gridrep/internal/wire"
)

// KV is a replicated key-value store with native transaction support:
// per-key locks acquired first-come (a transaction touching a key another
// open transaction holds gets ErrConflict and aborts, the "locks or other
// mechanisms" of §3.5).
//
// Operation payloads are built with KVPut/KVGet/KVDelete/KVAdd and
// replies parsed with KVReply.
type KV struct {
	data  map[string][]byte
	locks map[string]uint64 // key -> owning transaction
	open  map[uint64]*kvWS
	// shared marks data as pinned by at least one concurrent ReadView:
	// the next mutation must copy the map first (copy-on-write) so view
	// holders keep reading the pinned state race-free. Values are never
	// mutated in place (every put stores a fresh slice), so sharing the
	// value slices between generations is safe.
	shared bool
}

// NewKV returns an empty store.
func NewKV() *KV {
	return &KV{
		data:  make(map[string][]byte),
		locks: make(map[string]uint64),
		open:  make(map[uint64]*kvWS),
	}
}

var (
	_ Service       = (*KV)(nil)
	_ Transactional = (*KV)(nil)
	_ TxnDiffer     = (*KV)(nil)
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
	return code, key, value, nil
}

// KV implements Sharder: every operation addresses exactly one key, so
// a sharded deployment routes it by that key (DESIGN.md §13).
var _ Sharder = (*KV)(nil)

// ShardKey implements Sharder.
func (s *KV) ShardKey(op []byte) ([]byte, bool) {
	_, key, _, err := kvParse(op)
	if err != nil {
		return nil, false
	}
	return []byte(key), true
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
	enc := wire.NewEncoder(nil)
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
	res := kvApply(code, key, value,
		func(k string) ([]byte, bool) { v, ok := s.data[k]; return v, ok },
		func(k string, v []byte) { s.mutableData()[k] = v },
		func(k string) { delete(s.mutableData(), k) })
	return res, nil
}

// mutableData returns the data map, first cloning it if a concurrent
// ReadView has it pinned. Amortized cost is one map copy per pinned
// view generation; the single-goroutine mutation discipline is
// unchanged (only the event loop calls this).
func (s *KV) mutableData() map[string][]byte {
	if s.shared {
		clone := make(map[string][]byte, len(s.data))
		for k, v := range s.data {
			clone[k] = v
		}
		s.data = clone
		s.shared = false
	}
	return s.data
}

// Snapshot implements Service with a deterministic (sorted) encoding.
func (s *KV) Snapshot() []byte {
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	enc := wire.NewEncoder(nil)
	enc.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		enc.String(k)
		enc.Bytes8(s.data[k])
	}
	return enc.Bytes()
}

// Restore implements Service. Open transactions are discarded: a restore
// happens only on state transfer, when local speculation is void anyway.
func (s *KV) Restore(snap []byte) error {
	dec := wire.NewDecoder(snap)
	n := dec.SliceLen()
	if dec.Err() != nil {
		return dec.Err()
	}
	data := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		k := dec.String()
		v := dec.Bytes8()
		data[k] = v
	}
	if err := dec.Done(); err != nil {
		return err
	}
	s.data = data
	s.shared = false // brand-new map; pinned views keep the old one
	s.locks = make(map[string]uint64)
	s.open = make(map[uint64]*kvWS)
	return nil
}

// Len returns the number of keys (for tests).
func (s *KV) Len() int { return len(s.data) }

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
			v, ok := w.s.data[k]
			return v, ok
		},
		func(k string, v []byte) { w.overlay[k] = v; delete(w.deleted, k) },
		func(k string) { delete(w.overlay, k); w.deleted[k] = true })
	return res, nil
}

func (w *kvWS) Commit() error {
	if w.done {
		return nil
	}
	_, err := w.s.CommitDelta(w)
	return err
}

// CommitDelta implements TxnDiffer: a transaction commits by encoding its
// write set as a delta and applying that, the path backups take too.
func (s *KV) CommitDelta(ws Workspace) ([]byte, error) {
	w := ws.(*kvWS) // a workspace from this store's Begin, by contract
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
	for _, k := range w.held {
		if w.s.locks[k] == w.txn {
			delete(w.s.locks, k)
		}
	}
	delete(w.s.open, w.txn)
}

// KV implements ReadViewer by copy-on-write: ReadView pins the current
// data map; the next mutation clones it (mutableData), so view holders
// keep a stable, never-again-written map with zero per-read cost.
var _ ReadViewer = (*KV)(nil)

// ReadView implements ReadViewer. Pinning is refused while any
// transaction holds locks: an inline read of a locked key must return
// ErrConflict (§3.5), and a frozen view cannot see the live lock table,
// so the caller falls back to inline execution until the locks drain.
func (s *KV) ReadView() (ReadView, bool) {
	if len(s.locks) > 0 {
		return nil, false
	}
	s.shared = true
	return kvView{data: s.data}, true
}

// kvView is a pinned KV state generation. Safe for concurrent
// ReadExecute calls: the map is never written after pinning.
type kvView struct {
	data map[string][]byte
}

// ReadExecute implements ReadView: kvGet only — every other opcode
// mutates and must be rejected, not silently applied to a frozen copy.
func (v kvView) ReadExecute(op []byte) ([]byte, error) {
	code, key, _, err := kvParse(op)
	if err != nil {
		return nil, err
	}
	if code != kvGet {
		return nil, fmt.Errorf("%w: opcode %d on read-only view", ErrBadOp, code)
	}
	val, ok := v.data[key]
	return kvReply(val, ok), nil
}

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
	enc := wire.NewEncoder(nil)
	var changes uint64
	res := kvApply(code, key, value,
		func(k string) ([]byte, bool) { v, ok := s.data[k]; return v, ok },
		func(k string, v []byte) {
			s.mutableData()[k] = v
			enc.Bool(true) // put
			enc.String(k)
			enc.Bytes8(v)
			changes++
		},
		func(k string) {
			delete(s.mutableData(), k)
			enc.Bool(false) // delete
			enc.String(k)
			changes++
		})
	hdr := wire.NewEncoder(nil)
	hdr.Uvarint(changes)
	return res, append(hdr.Bytes(), enc.Bytes()...), nil
}

// ApplyDelta implements Differ.
func (s *KV) ApplyDelta(delta []byte) error {
	dec := wire.NewDecoder(delta)
	n := dec.SliceLen()
	if dec.Err() != nil {
		return dec.Err()
	}
	data := s.data
	if n > 0 {
		data = s.mutableData()
	}
	for i := 0; i < n; i++ {
		if dec.Bool() {
			k := dec.String()
			v := dec.Bytes8()
			if dec.Err() != nil {
				return dec.Err()
			}
			data[k] = v
		} else {
			k := dec.String()
			if dec.Err() != nil {
				return dec.Err()
			}
			delete(data, k)
		}
	}
	return dec.Done()
}
