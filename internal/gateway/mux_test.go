package gateway

import (
	"testing"

	"gridrep/internal/wire"
)

// TestSessionMuxDemux: sessions share one transport; sends are stamped
// with the session ID and replies are demultiplexed back to the right
// session by the reply's client field.
func TestSessionMuxDemux(t *testing.T) {
	f := newFakeUnder()
	m := NewSessionMux(f)
	defer m.Close()

	a, err := m.Open(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Open(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.Local() != SessionID(1, 1) || b.Local() != SessionID(2, 9) {
		t.Fatalf("session IDs: %v %v", a.Local(), b.Local())
	}
	// Reopening returns the same endpoint.
	if a2, _ := m.Open(1, 1); a2 != a {
		t.Fatal("reopen created a second endpoint")
	}

	a.Send(&wire.Envelope{To: 0, Msg: &wire.RequestMsg{Req: wire.Request{Client: a.Local(), Seq: 1}}})
	b.Send(&wire.Envelope{To: 0, Msg: &wire.RequestMsg{Req: wire.Request{Client: b.Local(), Seq: 1}}})
	f.mu.Lock()
	if len(f.sent) != 2 || f.sent[0].From != a.Local() || f.sent[1].From != b.Local() {
		f.mu.Unlock()
		t.Fatalf("sends not stamped with session IDs")
	}
	f.mu.Unlock()

	// Replies go to their session only; unknown sessions count as drops.
	f.inject(replyEnv(b.Local(), 1, wire.StatusOK))
	f.inject(replyEnv(a.Local(), 1, wire.StatusOK))
	f.inject(replyEnv(SessionID(5, 5), 1, wire.StatusOK))

	got := <-a.Recv()
	if got.Msg.(*wire.ReplyMsg).Rep.Client != a.Local() {
		t.Fatalf("session a got %+v", got)
	}
	got = <-b.Recv()
	if got.Msg.(*wire.ReplyMsg).Rep.Client != b.Local() {
		t.Fatalf("session b got %+v", got)
	}
	if n := m.Drops(); n != 1 {
		t.Fatalf("drops = %d, want the one reply for no open session", n)
	}

	// Closing one session detaches it without touching the other.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-a.Recv(); ok {
		t.Fatal("closed session recv still open")
	}
	f.inject(replyEnv(b.Local(), 2, wire.StatusOK))
	if got := <-b.Recv(); got.Msg.(*wire.ReplyMsg).Rep.Seq != 2 {
		t.Fatalf("session b after a.Close: %+v", got)
	}

	// Close shuts the shared transport and every remaining session.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-b.Recv(); ok {
		t.Fatal("mux close left session recv open")
	}
	if _, err := m.Open(3, 1); err != ErrMuxClosed {
		t.Fatalf("Open after Close: %v", err)
	}
}
