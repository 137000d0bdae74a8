// Package clock provides the virtual time base of the FlexOS simulator.
//
// Every component of the simulated OS charges cycles to a CPU as it does
// real work (copying bytes, computing checksums, switching protection
// domains, running sanitizer checks). Throughput and latency figures are
// derived from the virtual cycle counter, never from wall-clock time, so
// experiments are deterministic and hardware independent.
//
// The time domain is a Machine: N vCPUs, each a CPU with its own cycle
// counter. Threads and interrupt work charge the vCPU they run on, and
// the scheduler's conservative discrete-event interleaver always
// resumes the runnable vCPU with the lowest cycle count (ties broken by
// ascending vCPU id), so an SMP run is bit-reproducible with no
// Go-level concurrency. A machine's elapsed time is its makespan — the
// maximum over its vCPU counters. A single-core image is a machine of
// one vCPU.
//
// The clock also keeps a per-component attribution of charged cycles.
// This is what makes Table 1 of the paper (software hardening applied to
// one micro-library at a time) reproducible: the share of total work a
// component performs is measured, not assumed.
package clock

import "time"

// Component identifies a micro-library (or infrastructure facility) for
// cycle attribution. Components are free-form, but the canonical FlexOS
// decomposition uses the constants below.
type Component string

// Canonical components of the FlexOS image used throughout the
// evaluation. They mirror the micro-library granularity of the paper:
// the network stack, the scheduler, the standard C library, the memory
// allocator, the application itself and the rest of the kernel.
const (
	CompNet   Component = "netstack"
	CompSched Component = "scheduler"
	CompLibC  Component = "libc"
	CompAlloc Component = "alloc"
	CompApp   Component = "app"
	CompRest  Component = "rest"
	CompGate  Component = "gate"
	CompSH    Component = "sh"
	CompVMM   Component = "vmm"
	CompCopy  Component = "copy"
	CompFault Component = "fault"
	// CompIdle attributes the cycles an idle vCPU's counter is
	// fast-forwarded by when a cross-CPU wake arrives from a vCPU whose
	// clock is ahead: waiting, not work.
	CompIdle Component = "idle"
)

// Hz is the frequency of the simulated CPU. The paper's testbed is a
// Xeon Silver 4110 at 2.1 GHz.
const Hz = 2_100_000_000

// CPU is one vCPU of a Machine: a cycle counter plus a per-component
// breakdown of where those cycles went.
//
// CPU is not safe for concurrent use: the simulator runs on one
// goroutine even when it models several vCPUs — the scheduler's
// deterministic interleaver (lowest cycle count first, ties by vCPU id)
// stands in for hardware parallelism, which keeps runs reproducible.
type CPU struct {
	cycles uint64
	// canon holds the canonical components' rows, indexed by
	// canonIndex; bit i of seen says canon[i] is a row of the ledger.
	canon [len(canonical)]uint64
	seen  uint16
	// extra holds any other component's row, in first-charge order.
	extra []entry
	id    int
	mach  *Machine
}

// entry is one non-canonical row of a CPU's per-component ledger.
type entry struct {
	comp   Component
	cycles uint64
}

// canonical lists the canonical components in their ledger slots.
var canonical = [...]Component{
	CompNet, CompSched, CompLibC, CompAlloc, CompApp, CompRest,
	CompGate, CompSH, CompVMM, CompCopy, CompFault, CompIdle,
}

// canonIndex reports comp's slot in canonical, or -1 for a
// non-canonical component. The switch compares lengths and words of
// the string, never a hash, and matches a canonical name however its
// string was built.
func canonIndex(comp Component) int {
	switch comp {
	case CompNet:
		return 0
	case CompSched:
		return 1
	case CompLibC:
		return 2
	case CompAlloc:
		return 3
	case CompApp:
		return 4
	case CompRest:
		return 5
	case CompGate:
		return 6
	case CompSH:
		return 7
	case CompVMM:
		return 8
	case CompCopy:
		return 9
	case CompFault:
		return 10
	case CompIdle:
		return 11
	}
	return -1
}

// New returns vCPU 0 of a fresh one-vCPU machine.
func New() *CPU { return NewMachine(1).CPU(0) }

// Charge adds cycles to the counter, attributed to comp. A canonical
// component lands in its fixed slot; any other is found in a short
// slice by string equality. A component's first charge adds its row,
// even for zero cycles, and a steady-state charge allocates nothing.
func (c *CPU) Charge(comp Component, cycles uint64) {
	c.cycles += cycles
	if i := canonIndex(comp); i >= 0 {
		c.canon[i] += cycles
		c.seen |= 1 << i
		return
	}
	for i := range c.extra {
		if c.extra[i].comp == comp {
			c.extra[i].cycles += cycles
			return
		}
	}
	c.extra = append(c.extra, entry{comp, cycles})
}

// addTo adds each of the vCPU's ledger rows into out.
func (c *CPU) addTo(out map[Component]uint64) {
	for i, comp := range canonical {
		if c.seen&(1<<i) != 0 {
			out[comp] += c.canon[i]
		}
	}
	for _, e := range c.extra {
		out[e.comp] += e.cycles
	}
}

// Cycles reports the total number of cycles charged so far.
func (c *CPU) Cycles() uint64 { return c.cycles }

// ID reports the vCPU's index within its machine.
func (c *CPU) ID() int { return c.id }

// Machine reports the machine this vCPU belongs to.
func (c *CPU) Machine() *Machine { return c.mach }

// MakeCurrent directs the machine's subsequent charges to this vCPU.
// The scheduler calls it on every dispatch.
func (c *CPU) MakeCurrent() { c.mach.cur = c }

// AdvanceTo fast-forwards an idle vCPU's counter to now, attributing
// the gap to CompIdle. The scheduler uses it when a cross-CPU wake
// targets a vCPU whose clock lags the waker: the woken thread cannot
// run before the IPI that made it runnable was sent. A counter already
// at or past now is untouched.
func (c *CPU) AdvanceTo(now uint64) {
	if now <= c.cycles {
		return
	}
	c.Charge(CompIdle, now-c.cycles)
}

// ByComponent returns a copy of the per-component cycle ledger.
func (c *CPU) ByComponent() map[Component]uint64 {
	out := make(map[Component]uint64)
	c.addTo(out)
	return out
}

// Component reports the cycles attributed to a single component.
func (c *CPU) Component(comp Component) uint64 {
	if i := canonIndex(comp); i >= 0 {
		return c.canon[i]
	}
	for _, e := range c.extra {
		if e.comp == comp {
			return e.cycles
		}
	}
	return 0
}

// Reset zeroes the counter and the ledger.
func (c *CPU) Reset() {
	c.cycles = 0
	c.canon = [len(canonical)]uint64{}
	c.seen = 0
	c.extra = c.extra[:0]
}

// CyclesToDuration converts cycles at Hz to a duration.
func CyclesToDuration(cycles uint64) time.Duration {
	// cycles / Hz seconds = cycles * 1e9 / Hz nanoseconds.
	// Use float to avoid overflow for large counts.
	return time.Duration(float64(cycles) * 1e9 / Hz)
}

// Nanoseconds reports the simulated time in nanoseconds for a cycle count.
func Nanoseconds(cycles uint64) float64 {
	return float64(cycles) * 1e9 / Hz
}

// GbpsFor reports throughput in gigabits per second for payload bytes
// moved in the given number of cycles.
func GbpsFor(bytes, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	seconds := float64(cycles) / Hz
	return float64(bytes) * 8 / seconds / 1e9
}

// OpsPerSec reports operation throughput for ops completed in cycles.
func OpsPerSec(ops, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(ops) / (float64(cycles) / Hz)
}
