package sched

import (
	"math/rand"
	"slices"
	"testing"
)

// armAfter makes a timer on ts that runs fn delay ticks from now.
func armAfter(ts *Timers, delay uint64, fn func()) *Timer {
	t := ts.NewTimer(fn)
	t.Reset(delay)
	return t
}

// timerModel is the reference the heap must agree with: the live
// timers, kept as a plain list and fired by sorting on (At, seq), which
// is the rule the wheel has always documented.
type timerModel struct {
	now, seq uint64
	live     map[int][2]uint64 // timer id -> (At, seq)
}

func (m *timerModel) arm(id int, delay uint64) {
	m.live[id] = [2]uint64{m.now + delay, m.seq}
	m.seq++
}

// fire removes and returns the earliest live timer, as the old sorted
// list did, or -1 when none is live.
func (m *timerModel) fire() int {
	ids := make([]int, 0, len(m.live))
	for id := range m.live {
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return -1
	}
	slices.SortFunc(ids, func(a, b int) int {
		ka, kb := m.live[a], m.live[b]
		if ka[0] != kb[0] {
			return cmpU64(ka[0], kb[0])
		}
		return cmpU64(ka[1], kb[1])
	})
	id := ids[0]
	if at := m.live[id][0]; at > m.now {
		m.now = at
	}
	delete(m.live, id)
	return id
}

func cmpU64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// TestTimersMatchModel drives seeded random sequences of arming, Stop,
// Reset and fires (some callbacks re-arming their own timer, as the
// network stack's retransmission timer does) through the heap and the
// reference model side by side: every fire must pick the same timer,
// and Now and Pending must agree after every step.
func TestTimersMatchModel(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ts := newTimers()
		m := &timerModel{live: map[int][2]uint64{}}
		var timers []*Timer
		rearm := map[int]uint64{} // id -> delay its callback re-arms with
		var fired []int
		newTimer := func(delay uint64) {
			id := len(timers)
			if rng.Intn(4) == 0 {
				rearm[id] = uint64(1 + rng.Intn(20))
			}
			timers = append(timers, armAfter(ts, delay, func() {
				fired = append(fired, id)
				if d, ok := rearm[id]; ok && rng.Intn(2) == 0 {
					timers[id].Reset(d)
					m.arm(id, d)
				}
			}))
			m.arm(id, delay)
		}
		for step := 0; step < 1000; step++ {
			switch op := rng.Intn(10); {
			case op < 3 || len(timers) == 0:
				newTimer(uint64(rng.Intn(50)))
			case op < 5:
				id := rng.Intn(len(timers))
				timers[id].Stop()
				delete(m.live, id)
			case op < 7:
				id := rng.Intn(len(timers))
				d := uint64(rng.Intn(50))
				timers[id].Reset(d)
				m.arm(id, d)
			default:
				want := m.fire()
				n := len(fired)
				if got := ts.fireEarliest(); got != (want >= 0) {
					t.Fatalf("seed %d step %d: fired %v, model fires timer %d", seed, step, got, want)
				}
				if want >= 0 && fired[n] != want {
					t.Fatalf("seed %d step %d: fired timer %d, model fires %d", seed, step, fired[n], want)
				}
			}
			if ts.Now() != m.now || ts.Pending() != len(m.live) {
				t.Fatalf("seed %d step %d: now %d pending %d, model now %d pending %d",
					seed, step, ts.Now(), ts.Pending(), m.now, len(m.live))
			}
			for id, tm := range timers {
				if _, live := m.live[id]; tm.Armed() != live {
					t.Fatalf("seed %d step %d: timer %d armed %v, model live %v", seed, step, id, tm.Armed(), live)
				}
			}
		}
		// Drain: the rest fires in model order.
		for want := m.fire(); want >= 0; want = m.fire() {
			n := len(fired)
			if !ts.fireEarliest() || fired[n] != want || ts.Now() != m.now {
				t.Fatalf("seed %d drain: fired %v, model fires %d at %d (now %d)", seed, fired[n:], want, m.now, ts.Now())
			}
		}
		if ts.fireEarliest() || ts.Pending() != 0 {
			t.Fatalf("seed %d: %d timers left after the drain", seed, ts.Pending())
		}
	}
}

// TestTimersStopFreesAtOnce: a stopped timer leaves the heap at once.
// 10,000 arm/stop cycles with no fire in between leave it empty (the
// old list kept every stopped entry until the next fire), and 10,000
// re-arms of one timer keep exactly one entry.
func TestTimersStopFreesAtOnce(t *testing.T) {
	ts := newTimers()
	fn := func() { t.Error("a stopped timer fired") }
	for i := 0; i < 10_000; i++ {
		armAfter(ts, uint64(i%97), fn).Stop()
	}
	if ts.Pending() != 0 || len(ts.heap) != 0 {
		t.Fatalf("after 10000 arm/stop cycles: pending %d, heap %d entries", ts.Pending(), len(ts.heap))
	}
	fired := 0
	tm := ts.NewTimer(func() { fired++ })
	for i := 0; i < 10_000; i++ {
		tm.Reset(uint64(i % 13))
	}
	if ts.Pending() != 1 || len(ts.heap) != 1 {
		t.Fatalf("after 10000 re-arms of one timer: pending %d, heap %d entries", ts.Pending(), len(ts.heap))
	}
	tm.Stop()
	tm.Stop() // stopping a timer that is not pending is a no-op
	if ts.fireEarliest() || fired != 0 {
		t.Fatalf("fired %d after the last Stop", fired)
	}
}

// BenchmarkTimerRearm re-arms and then stops one timer while four
// others are pending: the retransmission timer's Reset and Stop, once
// per data segment, on a heap of the 5 entries an iperf-bulk run peaks
// at.
func BenchmarkTimerRearm(b *testing.B) {
	ts := newTimers()
	fn := func() {}
	for i := 1; i <= 4; i++ {
		armAfter(ts, uint64(10*i), fn)
	}
	tm := ts.NewTimer(fn)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.Reset(uint64(i % 50))
		tm.Stop()
	}
}
