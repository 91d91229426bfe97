package transport

import (
	"testing"

	"gridrep/internal/wire"
)

// TestTCPRoundTripAllocs pins the steady-state allocation budget of the
// full tcpx hot path: pooled encode + framed write on the sender, framed
// read + owned decode + delivery on the receiver. AllocsPerRun counts
// whole-process mallocs, so the budget covers both endpoints' goroutines
// for one request each way. Steady state measures 6; the budget leaves
// slack for pool refills after a GC without letting the pre-overhaul
// cost (20/op) sneak back.
func TestTCPRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts on pooled paths are not meaningful under -race (sync.Pool drops items)")
	}
	t0, t1 := tcpPair(t)
	env0, env1 := benchEnv(1), benchEnv(0)
	roundTrip := func() {
		t0.Send(env0)
		if _, ok := <-t1.Recv(); !ok {
			t.Fatal("t1 recv closed")
		}
		t1.Send(env1)
		if _, ok := <-t0.Recv(); !ok {
			t.Fatal("t0 recv closed")
		}
	}
	for i := 0; i < 50; i++ {
		roundTrip() // warm pools, bufio buffers, and supervisor state
	}
	avg := testing.AllocsPerRun(200, roundTrip)
	if avg > 10 {
		t.Errorf("tcp round trip allocates %.2f/op, budget 10", avg)
	}
}

// TestTCPDialRoundTripAllocs is the same budget for the pair
// gridrep.Dial sets up: a DialTCPSync client writing its request inline
// and a replica answering through its reply writer.
func TestTCPDialRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts on pooled paths are not meaningful under -race (sync.Pool drops items)")
	}
	rep, cli := dialPair(t)
	req, reply := benchEnv(0), benchEnv(wire.ClientIDBase)
	roundTrip := func() {
		cli.Send(req)
		if _, ok := <-rep.Recv(); !ok {
			t.Fatal("replica recv closed")
		}
		rep.Send(reply)
		if _, ok := <-cli.Recv(); !ok {
			t.Fatal("client recv closed")
		}
	}
	for i := 0; i < 50; i++ {
		roundTrip()
	}
	avg := testing.AllocsPerRun(200, roundTrip)
	if avg > 10 {
		t.Errorf("dial round trip allocates %.2f/op, budget 10", avg)
	}
	t.Logf("%.2f allocs per round trip", avg)
}

// TestTCPWaveRoundTripAllocs is the same budget check for a loaded
// accept-wave frame, the dominant replica→replica message under write
// load. Steady state measures 15 (the wave's entry/request/result slices
// dominate); pre-overhaul was 42.
func TestTCPWaveRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts on pooled paths are not meaningful under -race (sync.Pool drops items)")
	}
	t0, t1 := tcpPair(t)
	wave, ack := benchWaveEnv(1), benchEnv(0)
	roundTrip := func() {
		t0.Send(wave)
		if _, ok := <-t1.Recv(); !ok {
			t.Fatal("t1 recv closed")
		}
		t1.Send(ack)
		if _, ok := <-t0.Recv(); !ok {
			t.Fatal("t0 recv closed")
		}
	}
	for i := 0; i < 50; i++ {
		roundTrip()
	}
	avg := testing.AllocsPerRun(200, roundTrip)
	if avg > 21 {
		t.Errorf("tcp wave round trip allocates %.2f/op, budget 21", avg)
	}
}
