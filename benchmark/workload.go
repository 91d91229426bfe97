package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"gridrep"
	"gridrep/internal/client"
)

// State and traffic constants the workloads share. kvKeys × kvValueSize
// is the 1 MB state of the two TCP workloads.
const (
	kvKeys      = 4096
	kvValueSize = 256
	counterKeys = 64
	hashPrefix  = 1024 // intents per stream that enter the op-stream hash
)

// intent is one generated operation before it meets the system: the
// class, the key it addresses (key-value workloads) and a priority
// (scheduler submits). The generator depends on the seed only; what a
// scheduler complete names comes from the system's replies.
type intent struct {
	Class opClass
	Key   int
	Prio  int64
}

// streamSpec shapes one session's op stream. Classes come in shuffled
// blocks of fixed composition — of every `block` operations, `reads` are
// reads and `txns` transactions, the rest single writes — so every run
// offers the same mix and only the order and the keys vary with the seed;
// drawing each class independently would move a short run's throughput by
// several percent through the mix alone.
type streamSpec struct {
	block, reads, txns int
	keyLo, keyN        int // this session's key range
}

// opStream draws a session's intents from the run seed and the session
// index, so the same seed always yields the same inputs.
type opStream struct {
	spec    streamSpec
	rng     *rand.Rand
	pending []opClass // rest of the current block
}

func newOpStream(seed int64, session int, spec streamSpec) *opStream {
	return &opStream{spec: spec, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(session)))}
}

func (s *opStream) next() intent {
	if len(s.pending) == 0 {
		for i := 0; i < s.spec.block; i++ {
			c := classWrite
			switch {
			case i < s.spec.reads:
				c = classRead
			case i < s.spec.reads+s.spec.txns:
				c = classTxn
			}
			s.pending = append(s.pending, c)
		}
		s.rng.Shuffle(len(s.pending), func(i, j int) { s.pending[i], s.pending[j] = s.pending[j], s.pending[i] })
	}
	it := intent{Class: s.pending[0], Key: s.spec.keyLo + s.rng.Intn(s.spec.keyN), Prio: s.rng.Int63n(4)}
	s.pending = s.pending[1:]
	return it
}

// streamHash fingerprints the generated inputs: the first hashPrefix
// intents of every session's stream. Two runs that print the same hash
// were offered identical operations.
func streamHash(seed int64, specs []streamSpec) string {
	h := sha256.New()
	var buf [24]byte
	for i, spec := range specs {
		s := newOpStream(seed, i, spec)
		for n := 0; n < hashPrefix; n++ {
			it := s.next()
			binary.LittleEndian.PutUint64(buf[0:], uint64(it.Class))
			binary.LittleEndian.PutUint64(buf[8:], uint64(it.Key))
			binary.LittleEndian.PutUint64(buf[16:], uint64(it.Prio))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func kvKey(key int) string { return fmt.Sprintf("k%05d", key) }

// kvValue builds the value of one register version: the key and version
// in the first 16 bytes, then filler derived from both, so a reply can be
// checked byte for byte against the one value that version ever had.
func kvValue(key int, ver int64) []byte {
	v := make([]byte, kvValueSize)
	binary.LittleEndian.PutUint64(v[0:], uint64(key))
	binary.LittleEndian.PutUint64(v[8:], uint64(ver))
	x := uint64(key)<<32 ^ uint64(ver) ^ 0x9e3779b97f4a7c15
	for i := 16; i < kvValueSize; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(v[i:], x)
	}
	return v
}

// kvVersion recovers the version a register value holds, or an error
// text when the bytes are not a value this benchmark wrote for key.
func kvVersion(key int, val []byte) (int64, string) {
	if len(val) != kvValueSize {
		return 0, fmt.Sprintf("value of %d bytes", len(val))
	}
	ver := int64(binary.LittleEndian.Uint64(val[8:]))
	if !bytes.Equal(val, kvValue(key, ver)) {
		return 0, fmt.Sprintf("bytes do not match version %d of key %d", ver, key)
	}
	return ver, ""
}

// session is one closed-loop load generator: step draws the next intent
// from its stream, executes it and returns the record.
type session interface {
	step() opRecord
	clientID() uint32 // the client's node ID on the wire
}

// sessionBase carries what every session needs: the client, the stream,
// the run epoch and the client's sequence counter (the client library
// numbers requests from 1 in issue order; the traced run matches network
// spans to operations by that number).
type sessionBase struct {
	id     int
	cli    *client.Client
	stream *opStream
	epoch  time.Time
	seq    uint64
}

func (b *sessionBase) now() int64 { return int64(time.Since(b.epoch)) }

func (b *sessionBase) clientID() uint32 { return uint32(b.cli.ID()) }

// begin opens a record for an operation of n requests.
func (b *sessionBase) begin(kind opKind, n int) opRecord {
	t := b.now()
	r := opRecord{Client: b.id, Kind: kind, Due: t, Start: t, SeqLo: b.seq + 1, SeqHi: b.seq + uint64(n)}
	b.seq += uint64(n)
	return r
}

// registerSession reads and overwrites single-writer registers in its own
// key range (tcp-durable-write, tcp-mem-mixed).
type registerSession struct {
	sessionBase
	vers map[int]int64 // last version issued per key
}

func (s *registerSession) step() opRecord {
	it := s.stream.next()
	if it.Class == classRead {
		return s.get(it.Key)
	}
	return s.put(it.Key)
}

func (s *registerSession) put(key int) opRecord {
	s.vers[key]++
	r := s.begin(kvPut, 1)
	r.Key, r.Val = key, s.vers[key]
	_, err := s.cli.Write(gridrep.KVPut(kvKey(key), kvValue(key, r.Val)))
	r.End, r.Failed = s.now(), err != nil
	return r
}

func (s *registerSession) get(key int) opRecord {
	r := s.begin(kvGet, 1)
	r.Key = key
	res, err := s.cli.Read(gridrep.KVGet(kvKey(key)))
	r.End, r.Failed = s.now(), err != nil
	if err == nil {
		val, found := gridrep.KVReply(res)
		if !found {
			r.Bad = "key not found"
		} else {
			r.Val, r.Bad = kvVersion(key, val)
		}
	}
	return r
}

// counterSession increments and reads the shared counters (lan-failover).
type counterSession struct {
	sessionBase
}

func (s *counterSession) step() opRecord { return s.exec(s.stream.next(), s.now()) }

// exec runs one intent that was due at the given time (open loop: the
// latency clock starts when the operation was due, not when a client
// became free for it).
func (s *counterSession) exec(it intent, due int64) opRecord {
	kind := kvAdd
	if it.Class == classRead {
		kind = kvGet
	}
	r := s.begin(kind, 1)
	r.Due, r.Key = due, it.Key
	var res []byte
	var err error
	if kind == kvAdd {
		res, err = s.cli.Write(gridrep.KVAdd(kvKey(it.Key), 1))
	} else {
		res, err = s.cli.Read(gridrep.KVGet(kvKey(it.Key)))
	}
	r.End, r.Failed = s.now(), err != nil
	if err == nil {
		val, found := gridrep.KVReply(res)
		switch {
		case !found && kind == kvGet:
			r.Val = 0 // never incremented
		case len(val) != 8:
			r.Bad = fmt.Sprintf("value of %d bytes", len(val))
		default:
			r.Val = int64(binary.LittleEndian.Uint64(val))
		}
	}
	return r
}

// schedSession drives the grid scheduler (wan-sched-txn): status reads,
// single writes that walk submit → dispatch → complete, and transactions
// doing all three at once.
type schedSession struct {
	sessionBase
	jobs    int    // jobs submitted so far
	phase   int    // next single write: 0 submit, 1 dispatch, 2 complete
	running string // job this session dispatched and has not completed
}

func (s *schedSession) newJob() string {
	s.jobs++
	return fmt.Sprintf("c%d-j%d", s.id, s.jobs)
}

func (s *schedSession) step() opRecord {
	it := s.stream.next()
	switch it.Class {
	case classRead:
		return s.status()
	case classTxn:
		return s.txn(it.Prio)
	}
	switch s.phase {
	case 0:
		s.phase = 1
		return s.submit(it.Prio)
	case 1:
		r := s.dispatch()
		// Another client may have taken every queued job; then there is
		// nothing to complete and the walk starts over.
		if s.running = r.Job; s.running != "" {
			s.phase = 2
		} else {
			s.phase = 0
		}
		return r
	default:
		s.phase = 0
		return s.complete()
	}
}

func (s *schedSession) status() opRecord {
	r := s.begin(schedStatus, 1)
	res, err := s.cli.Read(gridrep.SchedStatus())
	r.End, r.Failed = s.now(), err != nil
	if err == nil {
		r.Jobs = parseStatus(res)
	}
	return r
}

// parseStatus splits a status reply into its "id state" rows.
func parseStatus(res []byte) []string {
	return strings.FieldsFunc(string(res), func(c rune) bool { return c == '\n' })
}

func (s *schedSession) submit(prio int64) opRecord {
	r := s.begin(schedSubmit, 1)
	r.Job = s.newJob()
	_, err := s.cli.Write(gridrep.SchedSubmit(r.Job, prio))
	r.End, r.Failed = s.now(), err != nil
	return r
}

func (s *schedSession) dispatch() opRecord {
	r := s.begin(schedDispatch, 1)
	res, err := s.cli.Write(gridrep.SchedDispatch())
	r.End, r.Failed, r.Job = s.now(), err != nil, string(res)
	return r
}

func (s *schedSession) complete() opRecord {
	r := s.begin(schedComplete, 1)
	r.Job = s.running
	_, err := s.cli.Write(gridrep.SchedComplete(r.Job))
	r.End, r.Failed = s.now(), err != nil
	s.running = ""
	return r
}

// txn submits a job, dispatches whatever the scheduler picks (never an
// empty queue: the submit precedes it) and completes that job, in one
// T-Paxos transaction of three operations plus the commit.
func (s *schedSession) txn(prio int64) opRecord {
	r := s.begin(schedTxn, 0)
	requests := uint64(1) // every Do, and the commit or abort, is one request
	job := s.newJob()
	tx := s.cli.Begin()
	r.Sub = []opRecord{{Client: s.id, Kind: schedSubmit, Job: job}}
	_, err := tx.Do(gridrep.SchedSubmit(job, prio))
	if err == nil {
		var res []byte
		requests++
		res, err = tx.Do(gridrep.SchedDispatch())
		r.Sub = append(r.Sub, opRecord{Client: s.id, Kind: schedDispatch, Job: string(res)})
		if err == nil && len(res) > 0 {
			requests++
			r.Sub = append(r.Sub, opRecord{Client: s.id, Kind: schedComplete, Job: string(res)})
			_, err = tx.Do(gridrep.SchedComplete(string(res)))
		}
	}
	requests++
	if err == nil {
		err = tx.Commit()
	} else {
		_ = tx.Abort() // best effort: the transaction already failed
	}
	s.seq += requests
	r.SeqHi = s.seq
	r.End, r.Failed = s.now(), err != nil
	return r
}
