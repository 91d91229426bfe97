package main

import "testing"

// Overlapping child spans are charged to the most local one and the
// parts always sum to the root's duration.
func TestSelfTimesSumToRoot(t *testing.T) {
	children := []span{
		{Name: spanNet + "request", Start: -5, End: 30}, // starts before the root: clipped
		{Name: spanExecute, Start: 20, End: 40},         // overlaps the request's tail
		{Name: spanNet + "accept", Start: 40, End: 70},
		{Name: spanFlush, Start: 50, End: 90}, // the leader's own flush, beside the accept
		{Name: spanNet + "reply", Start: 95, End: 120},
	}
	got := selfTimes(0, 130, children)
	want := map[string]int64{
		spanNet + "request": 20, spanExecute: 20, spanNet + "accept": 10, spanFlush: 40,
		spanNet + "reply": 25, "": 15,
	}
	var sum int64
	for k, v := range got {
		sum += v
		if want[k] != v {
			t.Errorf("%q charged %d, want %d", k, v, want[k])
		}
	}
	if sum != 130 {
		t.Errorf("parts sum to %d, want the root's 130", sum)
	}
}

func TestBudgetsMatchSpansToOperations(t *testing.T) {
	ops := []opRecord{
		{Kind: kvPut, Start: 0, End: 100, SeqLo: 1, SeqHi: 1},
		{Kind: kvGet, Start: 110, End: 150, SeqLo: 2, SeqHi: 2},
	}
	spans := []span{
		{Name: spanNet + "request", Start: 0, End: 20, Client: 9, Seq: 1, Bytes: 50},
		{Name: spanNet + "accept", Start: 30, End: 50, Client: 9, Seq: 1, Instance: 4, Bytes: 70},
		{Name: spanNet + "accepted", Start: 50, End: 70, Instance: 4, Bytes: 10},
		{Name: spanNet + "accepted", Start: 50, End: 70, Instance: 99}, // someone else's
		{Name: spanExecute, Start: 20, End: 30},                        // contained in op 1
		{Name: spanNet + "request", Start: 110, End: 130, Client: 9, Seq: 2, Bytes: 40},
		{Name: spanNet + "request", Start: 110, End: 130, Client: 8, Seq: 2}, // another client
		{Name: spanExecute, Start: 105, End: 108},                            // between operations
	}
	bs := budgets(ops, 9, spans)
	w, r := bs["write"], bs["read"]
	if w == nil || r == nil {
		t.Fatalf("budgets = %v, want write and read", bs)
	}
	if w.SelfUS[spanExecute] != 0.010 || w.SelfUS[spanNet+"accepted"] != 0.020 || w.Unattributed != 0.030 {
		t.Errorf("write budget %+v", w)
	}
	if w.BytesPerOp != 130 {
		t.Errorf("write bytes per op = %v, want 130", w.BytesPerOp)
	}
	if r.SelfUS[spanNet+"request"] != 0.020 || r.Unattributed != 0.020 || len(r.SelfUS) != 1 {
		t.Errorf("read budget %+v", r)
	}
}
