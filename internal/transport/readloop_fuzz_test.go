package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"gridrep/internal/wire"
)

// rawFrame is one frame on the wire: uvarint(len) | kind | payload.
func rawFrame(kind byte, payload []byte) []byte {
	b := binary.AppendUvarint(nil, uint64(len(payload)+1))
	return append(append(b, kind), payload...)
}

// parseFrames restates the read loop's rules over a byte slice: the
// envelopes data delivers, in order, and whether a frame in it severs
// the connection — one that fails to frame or decode — rather than the
// data merely ending mid-frame.
func parseFrames(data []byte) (envs []*wire.Envelope, sever bool) {
	r := bytes.NewReader(data)
	for {
		n, err := binary.ReadUvarint(r)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return envs, false
		}
		if err != nil || n == 0 || n > maxFrame {
			return envs, true
		}
		if uint64(r.Len()) < n {
			return envs, false
		}
		frame := make([]byte, n)
		r.Read(frame)
		switch frame[0] {
		case framePing, framePong:
		case frameEnv:
			env, err := wire.DecodeEnvelope(frame[1:])
			if err != nil {
				return envs, true
			}
			envs = append(envs, env)
		default:
			return envs, true
		}
	}
}

// FuzzTCPReadLoop feeds arbitrary bytes into one accept-side
// connection's read loop, which frames, decodes and delivers on its own
// goroutine. It must never panic; it delivers, in order, every envelope
// before the first frame that fails to frame or decode, and that frame
// closes the connection without waiting for more bytes. Pings are
// answered on the same connection, and the reply routes the loop learned
// are gone once it exits.
func FuzzTCPReadLoop(f *testing.F) {
	env := func(epoch uint64) []byte {
		e := hb(1, epoch)
		e.From, e.To = wire.ClientIDBase+7, 0
		return rawFrame(frameEnv, wire.EncodeEnvelope(nil, e))
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	ping := rawFrame(framePing, []byte("01234567"))
	f.Add(env(1))
	f.Add(cat(env(1), ping, rawFrame(framePong, []byte("01234567")), env(2)))
	f.Add(cat(env(1), rawFrame(framePing, bytes.Repeat([]byte("p"), 40)), env(2)))
	f.Add(cat(env(1), []byte{0}, env(2)))                                    // zero length
	f.Add(cat(env(1), binary.AppendUvarint(nil, maxFrame+1)))                // over maxFrame
	f.Add(cat(env(1), rawFrame(7, []byte("x")), env(2)))                     // unknown kind
	f.Add(cat(env(1), rawFrame(frameEnv, []byte{0xff, 0xff, 0xff}), env(2))) // corrupt envelope
	f.Add(env(1)[:5])                                                        // ends mid-frame
	f.Add(bytes.Repeat([]byte{0xff}, 11))                                    // uvarint overflow
	f.Fuzz(func(t *testing.T, data []byte) {
		want, sever := parseFrames(data)
		tr := newTCP(0, nil, Options{})
		var mu sync.Mutex
		var got []*wire.Envelope
		tr.SetSink(func(e *wire.Envelope) {
			mu.Lock()
			got = append(got, e)
			mu.Unlock()
		})
		near, far := net.Pipe()
		defer far.Close()
		conn := newTCPConn(near, 0)
		conn.wstop = make(chan struct{})
		tr.accepted[conn] = struct{}{}
		tr.wg.Add(1)
		done := make(chan struct{})
		go func() {
			tr.readLoop(conn, true, make(chan int64, 1))
			close(done)
		}()
		go io.Copy(io.Discard, far) // the pongs
		far.Write(data)             // fails once the loop severs
		if !sever {
			// Closing the pipe closes both ways, failing a pong still to
			// be written: wait for the deliveries first.
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				mu.Lock()
				n := len(got)
				mu.Unlock()
				if n >= len(want) {
					break
				}
			}
			far.Close()
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("read loop still running (sever = %v)", sever)
		}
		if len(got) != len(want) {
			t.Fatalf("delivered %d envelopes, want %d", len(got), len(want))
		}
		for i := range got {
			if g, w := wire.EncodeEnvelope(nil, got[i]), wire.EncodeEnvelope(nil, want[i]); !bytes.Equal(g, w) {
				t.Fatalf("envelope %d delivered as %x, want %x", i, g, w)
			}
		}
		if len(tr.inbound) != 0 || len(tr.accepted) != 0 {
			t.Fatalf("%d learned routes, %d connections left after the loop exited", len(tr.inbound), len(tr.accepted))
		}
	})
}
