package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flexos/internal/clock"
)

// refChooseQueue is the interleaver rule as a per-dispatch map of time
// domains, the shape the per-machine run queues replaced, kept as the
// reference chooseQueue must reproduce. runqs lists every run queue in
// registration order: machines in first-seen order, vCPUs in id order.
func refChooseQueue(runqs []*cpuRun) *cpuRun {
	type domain struct {
		best *cpuRun // min (cycles, id) runnable vCPU of the domain
		seq  uint64  // earliest head enqueue stamp in the domain
	}
	doms := make(map[interface{}]*domain)
	var order []interface{} // deterministic iteration
	for _, rq := range runqs {
		if len(rq.q) == 0 {
			continue
		}
		var key interface{} = rq.cpu.Machine()
		d, ok := doms[key]
		if !ok {
			doms[key] = &domain{best: rq, seq: rq.q[0].seq}
			order = append(order, key)
			continue
		}
		if less(rq.cpu, d.best.cpu) {
			d.best = rq
		}
		if rq.q[0].seq < d.seq {
			d.seq = rq.q[0].seq
		}
	}
	var chosen *domain
	for _, key := range order {
		d := doms[key]
		if chosen == nil || d.seq < chosen.seq {
			chosen = d
		}
	}
	if chosen == nil {
		return nil
	}
	return chosen.best
}

// randomQueues registers 1–3 machines of 1–4 vCPUs on s, each through
// a random vCPU as a spawn would, charges every vCPU 0–3 cycles (so
// equal counts, broken by id, are common), queues 0–2 threads per vCPU
// and stamps all of them with distinct enqueue stamps in random order.
func randomQueues(s *coop, r *rand.Rand) {
	var queued []*Thread
	for n := 1 + r.Intn(3); n > 0; n-- {
		m := clock.NewMachine(1 + r.Intn(4))
		s.runq(m.CPU(r.Intn(m.NCPU())))
		for _, c := range m.CPUs() {
			c.Charge(clock.CompApp, uint64(r.Intn(4)))
			rq := s.runq(c)
			for k := r.Intn(3); k > 0; k-- {
				t := &Thread{CPU: c, state: Ready}
				rq.q = append(rq.q, t)
				queued = append(queued, t)
			}
		}
	}
	for i, stamp := range r.Perm(len(queued)) {
		queued[i].seq = uint64(stamp)
	}
}

// TestChooseQueueMatchesDomainModel drains random queue sets one
// dispatch at a time, charging the dispatched vCPU a random amount as
// the thread would, and checks every choice against the map-based
// reference rule.
func TestChooseQueueMatchesDomainModel(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := newCoop(0, 0, false)
		randomQueues(s, r)
		var runqs []*cpuRun
		for _, qs := range s.machs {
			runqs = append(runqs, qs...)
		}
		for {
			got, want := s.chooseQueue(), refChooseQueue(runqs)
			if got != want {
				t.Logf("seed %d: chooseQueue picked %v, reference %v", seed, got, want)
				return false
			}
			if got == nil {
				return true
			}
			got.q = got.q[1:]
			got.cpu.Charge(clock.CompApp, uint64(r.Intn(4)))
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestChooseQueueDoesNotAllocate pins the per-dispatch cost: choosing
// between two machines with queued work allocates nothing.
func TestChooseQueueDoesNotAllocate(t *testing.T) {
	s := newCoop(0, 0, false)
	for _, m := range []*clock.Machine{clock.NewMachine(2), clock.NewMachine(1)} {
		for _, c := range m.CPUs() {
			s.enqueue(&Thread{CPU: c, state: Ready})
		}
	}
	if s.chooseQueue() == nil {
		t.Fatal("no queue chosen")
	}
	if allocs := testing.AllocsPerRun(100, func() { s.chooseQueue() }); allocs != 0 {
		t.Fatalf("chooseQueue allocates %.1f times per dispatch", allocs)
	}
}
