// Package trace records simulator events — domain crossings,
// protection faults — into a fixed-size ring, timestamped in virtual
// cycles. The paper's goal is to let developers *inspect* points of
// the isolation design space; the trace is how a run explains where
// its crossings went (examples/iperf -trace prints it).
package trace

import (
	"fmt"

	"flexos/internal/clock"
)

// Event is one recorded occurrence.
type Event struct {
	Seq    uint64
	Cycles uint64
	// CPU is the vCPU the event occurred on (always 0 on a single-core
	// machine).
	CPU  int
	Kind string // "crossing", "pkfault", ...
	From string
	To   string
	Note string
}

// String implements fmt.Stringer.
func (e Event) String() string {
	s := fmt.Sprintf("#%d @%dcy cpu%d %s %s->%s", e.Seq, e.Cycles, e.CPU, e.Kind, e.From, e.To)
	if e.Note != "" {
		s += " (" + e.Note + ")"
	}
	return s
}

// KindCall is a named cross-library call edge (From and To are
// libraries, Note the function); it goes to the recorder, not the ring.
const KindCall = "call"

// Sink is a machine's one observation point. Every producer hands its
// events to it; it stamps the cycle and vCPU and fans them out to what
// is attached: call edges to the recorder, the rest to the trace ring.
// Emit sites test On first, so with nothing attached an event costs
// one branch and formats no note.
type Sink struct {
	clk   *clock.Machine
	ring  *Ring
	calls func(from, to, fn string)
}

// NewSink returns a sink stamping events from clk.
func NewSink(clk *clock.Machine) *Sink { return &Sink{clk: clk} }

// On reports whether anything is attached. A nil sink is never on, so
// a producer built without one emits nothing.
func (s *Sink) On() bool { return s != nil && (s.ring != nil || s.calls != nil) }

// Attach routes every event except call edges into r (nil detaches).
func (s *Sink) Attach(r *Ring) { s.ring = r }

// Record routes every call edge to rec (nil detaches).
func (s *Sink) Record(rec func(from, to, fn string)) { s.calls = rec }

// Emit delivers e: a call edge to the recorder, any other event to the
// ring, stamped with the current cycle and vCPU.
func (s *Sink) Emit(e Event) {
	if e.Kind == KindCall {
		if s.calls != nil {
			s.calls(e.From, e.To, e.Note)
		}
		return
	}
	if s.ring != nil {
		e.Cycles, e.CPU = s.clk.Cycles(), s.clk.CurID()
		s.ring.Emit(e)
	}
}

// Ring is a fixed-capacity event buffer; when full, the oldest events
// are overwritten. The zero value is unusable; use NewRing.
type Ring struct {
	buf       []Event
	next      int
	seq       uint64
	full      bool
	dropped   uint64
	droppedBy map[string]uint64
}

// NewRing creates a ring holding up to capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 256
	}
	return &Ring{buf: make([]Event, capacity), droppedBy: make(map[string]uint64)}
}

// Emit records an event, stamping its sequence number.
func (r *Ring) Emit(e Event) {
	e.Seq = r.seq
	r.seq++
	if r.full {
		r.dropped++
		r.droppedBy[r.buf[r.next].Kind]++
	}
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Len reports how many events are currently held.
func (r *Ring) Len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Total reports how many events were ever emitted.
func (r *Ring) Total() uint64 { return r.seq }

// Dropped reports how many events were overwritten.
func (r *Ring) Dropped() uint64 { return r.dropped }

// DroppedKind reports how many events of one kind were overwritten.
// Overload events ("shed", "breaker-open") come in bursts
// precisely when the ring is busiest, so a flat total can hide that
// the interesting kind was the one squeezed out.
func (r *Ring) DroppedKind(kind string) uint64 { return r.droppedBy[kind] }

// DroppedByKind returns a copy of the per-kind drop counts. The values
// always sum to Dropped().
func (r *Ring) DroppedByKind() map[string]uint64 {
	out := make(map[string]uint64, len(r.droppedBy))
	for k, v := range r.droppedBy {
		out[k] = v
	}
	return out
}

// Events returns the held events in chronological order.
func (r *Ring) Events() []Event {
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// CountKind reports how many held events have the given kind.
func (r *Ring) CountKind(kind string) int {
	n := 0
	for _, e := range r.Events() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}
