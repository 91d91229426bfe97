package main

import "testing"

func TestSameSeedSameOpStream(t *testing.T) {
	specs := []streamSpec{{block: 10, reads: 5, txns: 2, keyN: 64}, {block: 16, reads: 1, keyLo: 256, keyN: 256}}
	a, b := streamHash(7, specs), streamHash(7, specs)
	if a != b {
		t.Fatalf("same seed gave hashes %s and %s", a, b)
	}
	if c := streamHash(8, specs); c == a {
		t.Fatalf("seeds 7 and 8 gave the same hash %s", a)
	}
	// The hash covers what the sessions actually draw.
	s1, s2 := newOpStream(7, 1, specs[1]), newOpStream(7, 1, specs[1])
	for i := 0; i < 1000; i++ {
		x, y := s1.next(), s2.next()
		if x != y {
			t.Fatalf("intent %d differs: %+v vs %+v", i, x, y)
		}
		if x.Key < 256 || x.Key >= 512 {
			t.Fatalf("intent %d: key %d outside the session's range", i, x.Key)
		}
	}
}

// Every block of a stream has exactly the composition its spec gives, in
// an order that depends on the seed.
func TestStreamBlocksHaveFixedComposition(t *testing.T) {
	s := newOpStream(1, 0, streamSpec{block: 10, reads: 5, txns: 2, keyN: 1})
	orders := map[string]bool{}
	for b := 0; b < 50; b++ {
		n := map[opClass]int{}
		order := ""
		for i := 0; i < 10; i++ {
			c := s.next().Class
			n[c]++
			order += string(rune('0' + c))
		}
		if n[classRead] != 5 || n[classTxn] != 2 || n[classWrite] != 3 {
			t.Fatalf("block %d holds %v, want 5 reads, 2 transactions, 3 writes", b, n)
		}
		orders[order] = true
	}
	if len(orders) < 25 {
		t.Errorf("50 blocks came in only %d different orders", len(orders))
	}
}

func TestKVValueRoundTrip(t *testing.T) {
	v := kvValue(1234, 56)
	if len(v) != kvValueSize {
		t.Fatalf("value is %d bytes, want %d", len(v), kvValueSize)
	}
	if ver, bad := kvVersion(1234, v); ver != 56 || bad != "" {
		t.Fatalf("kvVersion = %d, %q", ver, bad)
	}
	if _, bad := kvVersion(1235, v); bad == "" {
		t.Fatal("a value read under the wrong key must not verify")
	}
	v[100] ^= 1
	if _, bad := kvVersion(1234, v); bad == "" {
		t.Fatal("a corrupted value must not verify")
	}
}
