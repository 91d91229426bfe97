package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on (or pushed by the test).
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// An open loop keeps its schedule through a stall: operations due while
// the generator could not run are still due when they were, and the stall
// shows up as their lag — never as a shifted schedule.
func TestPaceKeepsDueTimesThroughAStall(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	const interval = 2500 * time.Microsecond
	var dues []time.Duration
	lags := pace(clk, start, interval, 10, func(i int, due time.Time) {
		dues = append(dues, due.Sub(start))
		if i == 3 {
			clk.now = clk.now.Add(9 * time.Millisecond) // the emit blocked
		}
	})
	for i, d := range dues {
		if want := time.Duration(i) * interval; d != want {
			t.Errorf("op %d due at %v, want %v", i, d, want)
		}
	}
	// Ops 4..6 were due 10, 12.5 and 15 ms in, while the clock stood at
	// 16.5 ms; op 7 (17.5 ms) is on time again.
	want := []time.Duration{0, 0, 0, 0, 6500 * time.Microsecond, 4 * time.Millisecond, 1500 * time.Microsecond, 0, 0, 0}
	for i := range want {
		if lags[i] != want[i] {
			t.Errorf("op %d lag %v, want %v", i, lags[i], want[i])
		}
	}
	if got, want := clk.now.Sub(start), 9*interval; got != want {
		t.Errorf("pacer finished at %v, want %v", got, want)
	}
}

func TestCrashScheduleIsSeededAndFitsTheWindow(t *testing.T) {
	a, b := crashSchedule(5, 20*time.Second), crashSchedule(5, 20*time.Second)
	if len(a) != 7 {
		t.Fatalf("20 s window holds %d crashes, want 7", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedules: %v vs %v", a, b)
		}
		if a[i]+failoverDown > 20*time.Second {
			t.Errorf("crash %d at %v restarts after the window", i, a[i])
		}
		if i > 0 && a[i]-a[i-1] < failoverDown+500*time.Millisecond {
			t.Errorf("crashes %d and %d only %v apart", i-1, i, a[i]-a[i-1])
		}
	}
	if c := crashSchedule(6, 20*time.Second); c[0] == a[0] && c[1] == a[1] {
		t.Error("seeds 5 and 6 gave the same schedule")
	}
	if got := crashSchedule(5, time.Second); len(got) != 0 {
		t.Errorf("a 1 s window must hold no crash, got %v", got)
	}
}

// Time without service runs from the crash to the first completion among
// operations due after it; operations due before the crash do not count,
// however late they complete.
func TestUnavailability(t *testing.T) {
	ms := int64(time.Millisecond)
	ops := []opRecord{
		{Due: 90 * ms, End: 400 * ms},                // due before the crash
		{Due: 110 * ms, End: 330 * ms},               // first service after it
		{Due: 105 * ms, End: 350 * ms},               //
		{Due: 102 * ms, End: 200 * ms, Failed: true}, // failed: no service
	}
	got := unavailability([]*crash{{at: 100 * ms}}, ops)
	if len(got) != 1 || got[0] != 230 {
		t.Fatalf("unavailability = %v, want [230]", got)
	}
}
