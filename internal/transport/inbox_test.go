package transport

import (
	"sync"
	"sync/atomic"
	"testing"

	"gridrep/internal/wire"
)

// TestInboxOverflowEvictsOldest: a full inbox evicts its oldest envelope
// for each new one and reports every eviction, so its owner's drop count
// is exact; a closed inbox refuses.
func TestInboxOverflowEvictsOldest(t *testing.T) {
	in := NewInbox(4)
	evicted := 0
	for i := 0; i < 10; i++ {
		switch in.Deliver(hb(0, uint64(i))) {
		case Evicted:
			evicted++
		case Refused:
			t.Fatalf("open inbox refused envelope %d", i)
		}
	}
	if evicted != 6 {
		t.Fatalf("evictions = %d, want 6", evicted)
	}
	for want := uint64(6); want < 10; want++ {
		if got := (<-in.Recv()).Msg.(*wire.Heartbeat).Epoch; got != want {
			t.Fatalf("surviving epoch = %d, want %d (oldest must be evicted first)", got, want)
		}
	}
	in.Close()
	in.Close() // idempotent
	if d := in.Deliver(hb(0, 10)); d != Refused {
		t.Fatalf("closed inbox: Deliver = %v, want Refused", d)
	}
	if _, ok := <-in.Recv(); ok {
		t.Fatal("Recv still open after Close")
	}
}

// TestInboxSinkBypassesRecv: once a sink is set, Deliver hands every
// envelope to it and nothing reaches the Recv channel; a closed inbox
// stops calling it.
func TestInboxSinkBypassesRecv(t *testing.T) {
	in := NewInbox(4)
	var got []uint64
	in.SetSink(func(env *wire.Envelope) { got = append(got, env.Msg.(*wire.Heartbeat).Epoch) })
	for i := uint64(0); i < 10; i++ { // more than the channel holds
		if d := in.Deliver(hb(0, i)); d != Queued {
			t.Fatalf("sink delivery %d = %v, want Queued", i, d)
		}
	}
	if len(got) != 10 || got[0] != 0 || got[9] != 9 {
		t.Fatalf("sink got %v, want epochs 0..9", got)
	}
	select {
	case env := <-in.Recv():
		t.Fatalf("Recv must be silent with a sink set, got %+v", env)
	default:
	}
	in.Close()
	if d := in.Deliver(hb(0, 10)); d != Refused || len(got) != 10 {
		t.Fatalf("closed inbox: Deliver = %v, sink calls %d; want Refused, 10", d, len(got))
	}
}

// TestInboxCloseRacesDeliver: Close lands while 8 goroutines deliver.
// Nothing panics, every envelope is either received or reported
// refused, and Recv ends closed.
func TestInboxCloseRacesDeliver(t *testing.T) {
	const senders, per = 8, 1000
	in := NewInbox(senders * per) // deep enough that nothing is evicted
	var refused atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				switch in.Deliver(hb(wire.NodeID(s), uint64(i))) {
				case Refused:
					refused.Add(1)
				case Evicted:
					t.Error("evicted below the inbox's depth")
				}
			}
		}(s)
	}
	received := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range in.Recv() { // ends once Close has run and the buffer drained
			if received++; received == senders*per/4 {
				in.Close() // mid-stream: the senders are still delivering
			}
		}
	}()
	wg.Wait()
	<-done
	if total := int64(received) + refused.Load(); total != senders*per {
		t.Fatalf("received %d + refused %d = %d, want %d", received, refused.Load(), total, senders*per)
	}
}
