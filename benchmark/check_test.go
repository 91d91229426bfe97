package main

import (
	"strings"
	"testing"
)

// mustFlag runs a checker and requires a violation mentioning want ("" =
// the history must pass).
func mustFlag(t *testing.T, name, want string, check func(v *violations)) {
	t.Helper()
	var v violations
	check(&v)
	switch {
	case want == "" && !v.ok():
		t.Errorf("%s: clean history flagged: %s", name, v.String())
	case want != "" && !strings.Contains(v.String(), want):
		t.Errorf("%s: want a violation containing %q, got: %s", name, want, v.String())
	}
}

func put(client, key int, ver, start, end int64) opRecord {
	return opRecord{Client: client, Kind: kvPut, Key: key, Val: ver, Start: start, End: end}
}

func get(client, key int, ver, start, end int64) opRecord {
	return opRecord{Client: client, Kind: kvGet, Key: key, Val: ver, Start: start, End: end}
}

func TestCheckRegisters(t *testing.T) {
	// Client 1 writes key 7; clients 1 and 2 read it.
	clean := []opRecord{get(1, 7, 0, 0, 1), put(1, 7, 1, 2, 5), get(2, 7, 1, 3, 4), get(2, 7, 1, 6, 7), put(1, 7, 2, 8, 9)}
	mustFlag(t, "clean", "", func(v *violations) { checkRegisters(clean, map[int]int64{7: 2}, v) })

	stale := []opRecord{put(1, 7, 1, 0, 1), put(1, 7, 2, 2, 3), get(2, 7, 1, 4, 5)}
	mustFlag(t, "stale read", "stale read", func(v *violations) { checkRegisters(stale, map[int]int64{7: 2}, v) })

	// Two reads, the second starting after the first ended, going backwards
	// while a put is in flight: each alone is allowed, the pair is not.
	backwards := []opRecord{put(1, 7, 1, 0, 10), get(2, 7, 1, 1, 2), get(2, 7, 0, 3, 4)}
	mustFlag(t, "reads go backwards", "stale read", func(v *violations) { checkRegisters(backwards, map[int]int64{7: 1}, v) })

	future := []opRecord{put(1, 7, 1, 0, 1), get(2, 7, 2, 2, 3), put(1, 7, 2, 4, 5)}
	mustFlag(t, "read from the future", "only 1 had been issued", func(v *violations) { checkRegisters(future, map[int]int64{7: 2}, v) })

	mustFlag(t, "lost write", "acknowledged write lost", func(v *violations) { checkRegisters(clean, map[int]int64{7: 1}, v) })
	mustFlag(t, "phantom", "phantom write", func(v *violations) { checkRegisters(clean, map[int]int64{7: 3}, v) })
	mustFlag(t, "missing key", "missing from the final state", func(v *violations) { checkRegisters(clean, map[int]int64{}, v) })

	// A failed put is in doubt: a later read may see it or not, and so may
	// the final state.
	failed := put(1, 7, 2, 2, 3)
	failed.Failed = true
	doubt := []opRecord{put(1, 7, 1, 0, 1), failed, get(1, 7, 2, 4, 5)}
	mustFlag(t, "in doubt, applied", "", func(v *violations) { checkRegisters(doubt, map[int]int64{7: 2}, v) })
	mustFlag(t, "in doubt, not applied", "", func(v *violations) { checkRegisters(doubt[:2], map[int]int64{7: 1}, v) })

	shared := []opRecord{put(1, 7, 1, 0, 1), put(2, 7, 2, 2, 3)}
	mustFlag(t, "two writers", "puts must come from one client", func(v *violations) { checkRegisters(shared, map[int]int64{7: 2}, v) })

	garbage := get(1, 7, 0, 0, 1)
	garbage.Bad = "bytes do not match"
	mustFlag(t, "garbage", "garbage", func(v *violations) { checkRegisters([]opRecord{garbage}, map[int]int64{7: 0}, v) })
}

func add(client, key int, val, start, end int64) opRecord {
	return opRecord{Client: client, Kind: kvAdd, Key: key, Val: val, Start: start, End: end}
}

func TestCheckCounters(t *testing.T) {
	// Two clients, overlapping increments, a read in between.
	clean := []opRecord{add(1, 3, 1, 0, 10), add(2, 3, 2, 5, 12), get(1, 3, 2, 13, 14), add(2, 3, 3, 15, 16)}
	mustFlag(t, "clean", "", func(v *violations) { checkCounters(clean, map[int]int64{3: 3}, v) })

	dup := []opRecord{add(1, 3, 1, 0, 1), add(2, 3, 1, 2, 3)}
	mustFlag(t, "duplicate value", "two acknowledged increments returned 1", func(v *violations) { checkCounters(dup, map[int]int64{3: 2}, v) })

	back := []opRecord{add(1, 3, 1, 0, 1), add(1, 3, 2, 2, 3), get(2, 3, 1, 4, 5)}
	mustFlag(t, "non-monotone read", "not monotone", func(v *violations) { checkCounters(back, map[int]int64{3: 2}, v) })

	mustFlag(t, "lost increment", "outside [3 acknowledged", func(v *violations) { checkCounters(clean, map[int]int64{3: 2}, v) })

	inDoubt := add(1, 3, 0, 6, 7)
	inDoubt.Failed = true
	withDoubt := append(append([]opRecord(nil), clean...), inDoubt)
	mustFlag(t, "in doubt counted", "", func(v *violations) { checkCounters(withDoubt, map[int]int64{3: 4}, v) })
	mustFlag(t, "in doubt not counted", "", func(v *violations) { checkCounters(withDoubt, map[int]int64{3: 3}, v) })
	mustFlag(t, "too many", "outside [3 acknowledged", func(v *violations) { checkCounters(withDoubt, map[int]int64{3: 5}, v) })
}

func sched(client int, kind opKind, job string, start, end int64) opRecord {
	return opRecord{Client: client, Kind: kind, Job: job, Start: start, End: end}
}

func TestCheckSched(t *testing.T) {
	status := func(start, end int64, rows ...string) opRecord {
		return opRecord{Client: 2, Kind: schedStatus, Jobs: rows, Start: start, End: end}
	}
	clean := []opRecord{
		sched(1, schedSubmit, "a", 0, 1),
		sched(1, schedSubmit, "b", 2, 3),
		status(4, 5, "a queued", "b queued"),
		sched(2, schedDispatch, "a", 6, 7),
		status(8, 9, "a running", "b queued"),
		sched(2, schedComplete, "a", 10, 11),
		{Client: 1, Kind: schedTxn, Start: 12, End: 13, Sub: []opRecord{
			{Kind: schedSubmit, Job: "c"}, {Kind: schedDispatch, Job: "c"}, {Kind: schedComplete, Job: "c"}}},
	}
	mustFlag(t, "clean", "", func(v *violations) { checkSched(clean, []string{"b queued"}, v) })

	twice := append(append([]opRecord(nil), clean...), sched(1, schedDispatch, "a", 14, 15))
	mustFlag(t, "dispatched twice", `"a" dispatched 2 times`, func(v *violations) { checkSched(twice, []string{"b queued"}, v) })

	mustFlag(t, "lost job", `"b" acknowledged but absent`, func(v *violations) { checkSched(clean, nil, v) })
	mustFlag(t, "zombie", `"a" completed but still`, func(v *violations) { checkSched(clean, []string{"a running", "b queued"}, v) })
	mustFlag(t, "duplicate row", `lists job "b" twice`, func(v *violations) { checkSched(clean, []string{"b queued", "b queued"}, v) })
	mustFlag(t, "unknown job", `"z" that nobody submitted`, func(v *violations) { checkSched(clean, []string{"b queued", "z queued"}, v) })
	mustFlag(t, "wrong state", `"b" is running`, func(v *violations) { checkSched(clean, []string{"b running"}, v) })

	blind := append([]opRecord(nil), clean...)
	blind[2] = status(4, 5, "a queued") // b was acknowledged at 3
	mustFlag(t, "status misses live job", `misses live job "b"`, func(v *violations) { checkSched(blind, []string{"b queued"}, v) })
}

func TestCheckSnapshots(t *testing.T) {
	mustFlag(t, "equal", "", func(v *violations) { checkSnapshots([][]byte{{1, 2}, {1, 2}, {1, 2}}, v) })
	mustFlag(t, "diverged", "replica 2's snapshot", func(v *violations) { checkSnapshots([][]byte{{1, 2}, {1, 2}, {1, 3}}, v) })
}
