// Package clock provides the virtual time base of the FlexOS simulator.
//
// Every component of the simulated OS charges cycles to a CPU as it does
// real work (copying bytes, computing checksums, switching protection
// domains, running sanitizer checks). Throughput and latency figures are
// derived from the virtual cycle counter, never from wall-clock time, so
// experiments are deterministic and hardware independent.
//
// The time base comes in two granularities. A standalone CPU is one
// virtual processor with its own cycle counter. A Machine is N vCPUs
// sharing one time domain: threads and interrupt work charge the vCPU
// they run on, and the scheduler's conservative discrete-event
// interleaver always resumes the runnable vCPU with the lowest cycle
// count (ties broken by ascending vCPU id), so an SMP run is
// bit-reproducible with no Go-level concurrency. A machine's elapsed
// time is its makespan — the maximum over its vCPU counters.
//
// The clock also keeps a per-component attribution of charged cycles.
// This is what makes Table 1 of the paper (software hardening applied to
// one micro-library at a time) reproducible: the share of total work a
// component performs is measured, not assumed.
package clock

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

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

// CPU is a virtual processor: a cycle counter plus a per-component
// breakdown of where those cycles went. The zero value is ready to use
// as a standalone single-core time domain; NewMachine builds vCPUs that
// share a Machine.
//
// CPU is not safe for concurrent use: the simulator runs on one
// goroutine even when it models several vCPUs — the scheduler's
// deterministic interleaver (lowest cycle count first, ties by vCPU id)
// stands in for hardware parallelism, which keeps runs reproducible.
type CPU struct {
	cycles  uint64
	ledger  []entry
	stopped bool
	id      int
	mach    *Machine // nil for a standalone CPU
}

// entry is one row of a CPU's per-component ledger.
type entry struct {
	comp   Component
	cycles uint64
}

// New returns a standalone CPU with an empty ledger.
func New() *CPU { return &CPU{} }

// Charge adds cycles to the counter, attributed to comp. The ledger
// is a short slice in first-charge order, scanned by string equality:
// an image charges about a dozen components, and the canonical ones
// share their string data, so a steady-state charge is a few compares
// with no hashing and no allocation. A component's first charge adds
// its row, even for zero cycles.
func (c *CPU) Charge(comp Component, cycles uint64) {
	c.cycles += cycles
	for i := range c.ledger {
		if c.ledger[i].comp == comp {
			c.ledger[i].cycles += cycles
			return
		}
	}
	c.ledger = append(c.ledger, entry{comp, cycles})
}

// Cycles reports the total number of cycles charged so far.
func (c *CPU) Cycles() uint64 { return c.cycles }

// ID reports the vCPU's index within its machine (0 for a standalone
// CPU).
func (c *CPU) ID() int { return c.id }

// Machine reports the machine this vCPU belongs to, nil for a
// standalone CPU.
func (c *CPU) Machine() *Machine { return c.mach }

// MakeCurrent directs the machine's subsequent charges to this vCPU.
// The scheduler calls it on every dispatch; standalone CPUs ignore it.
func (c *CPU) MakeCurrent() {
	if c.mach != nil {
		c.mach.cur = c
	}
}

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

// NCPU implements Clock (a standalone CPU is its own time domain).
func (c *CPU) NCPU() int { return 1 }

// CurID implements Clock: the vCPU charges currently land on.
func (c *CPU) CurID() int { return c.id }

// Steer implements Clock; a standalone CPU has nowhere to steer.
func (c *CPU) Steer(int) func() { return func() {} }

// ByComponent returns a copy of the per-component cycle ledger.
func (c *CPU) ByComponent() map[Component]uint64 {
	out := make(map[Component]uint64, len(c.ledger))
	for _, e := range c.ledger {
		out[e.comp] = e.cycles
	}
	return out
}

// Component reports the cycles attributed to a single component.
func (c *CPU) Component(comp Component) uint64 {
	for _, e := range c.ledger {
		if e.comp == comp {
			return e.cycles
		}
	}
	return 0
}

// Reset zeroes the counter and the ledger.
func (c *CPU) Reset() {
	c.cycles = 0
	c.ledger = c.ledger[:0]
}

// Elapsed converts the cycle counter to simulated time at Hz.
func (c *CPU) Elapsed() time.Duration {
	return CyclesToDuration(c.cycles)
}

// String formats the ledger, largest consumer first.
func (c *CPU) String() string {
	rows := slices.Clone(c.ledger)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].cycles != rows[j].cycles {
			return rows[i].cycles > rows[j].cycles
		}
		return rows[i].comp < rows[j].comp
	})
	var b strings.Builder
	fmt.Fprintf(&b, "cpu: %d cycles (%v)", c.cycles, c.Elapsed())
	for _, r := range rows {
		fmt.Fprintf(&b, "\n  %-10s %12d (%5.1f%%)", r.comp, r.cycles,
			100*float64(r.cycles)/float64(max(c.cycles, 1)))
	}
	return b.String()
}

// CyclesToDuration converts cycles at Hz to a duration.
func CyclesToDuration(cycles uint64) time.Duration {
	// cycles / Hz seconds = cycles * 1e9 / Hz nanoseconds.
	// Use float to avoid overflow for large counts.
	return time.Duration(float64(cycles) * 1e9 / Hz)
}

// DurationToCycles converts a duration to cycles at Hz.
func DurationToCycles(d time.Duration) uint64 {
	return uint64(float64(d.Nanoseconds()) * Hz / 1e9)
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

// MbpsFor reports throughput in megabits per second.
func MbpsFor(bytes, cycles uint64) float64 {
	return GbpsFor(bytes, cycles) * 1000
}

// OpsPerSec reports operation throughput for ops completed in cycles.
func OpsPerSec(ops, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(ops) / (float64(cycles) / Hz)
}
