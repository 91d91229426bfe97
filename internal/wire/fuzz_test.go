package wire

import (
	"reflect"
	"testing"
)

// FuzzDecodeEnvelope: decoding arbitrary bytes never panics; an envelope
// that decodes re-encodes to bytes that decode to an equal envelope; and
// DecodeEnvelopeOwned over a private copy of the bytes, which aliases
// them instead of copying, decodes the same envelope as DecodeEnvelope.
// The seed corpus (testdata/fuzz/FuzzDecodeEnvelope) holds one encoding
// of every MsgType, the legacy unstamped Confirm and Heartbeat forms, and
// two envelopes in the retired grouped layout, type byte bit 0x80 and a
// group field (TestGroupedEnvelopeRefused checks that it is refused).
func FuzzDecodeEnvelope(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		env, err := DecodeEnvelope(buf)
		owned, ownedErr := DecodeEnvelopeOwned(append([]byte(nil), buf...))
		if (err == nil) != (ownedErr == nil) {
			t.Fatalf("DecodeEnvelope err = %v, DecodeEnvelopeOwned err = %v", err, ownedErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(owned, env) {
			t.Fatalf("DecodeEnvelopeOwned = %+v, DecodeEnvelope = %+v", owned, env)
		}
		again, err := DecodeEnvelope(EncodeEnvelope(nil, env))
		if err != nil {
			t.Fatalf("re-encoded %v does not decode: %v", env.Msg.Type(), err)
		}
		if !reflect.DeepEqual(again, env) {
			t.Fatalf("re-encoded %v decodes to %+v, want %+v", env.Msg.Type(), again, env)
		}
	})
}
