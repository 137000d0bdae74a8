package gate

import (
	"fmt"

	"flexos/internal/cheri"
	"flexos/internal/clock"
	"flexos/internal/fault"
)

// cheriGate implements compartment crossings on a capability machine:
// each compartment publishes a sealed code/data capability pair, and a
// crossing is a CInvoke of the target's pair (plus register hygiene),
// with the return path invoking the caller's pair. There is no PKRU
// and no 16-domain limit — the heterogeneity the paper's gate
// abstraction exists to absorb.
type cheriGate struct {
	m       *cheri.Machine
	cpu     *clock.Machine
	entries map[string][2]cheri.Capability // domain -> sealed {code, data}
}

// NewCHERI returns a capability-backend gate over machine m.
// Compartments must register their sealed entry pairs before crossing.
func NewCHERI(m *cheri.Machine, cpu *clock.Machine) *CHERIGate {
	return &CHERIGate{cheriGate{m: m, cpu: cpu, entries: make(map[string][2]cheri.Capability)}}
}

// CHERIGate is the exported capability gate (it needs a registration
// method beyond the Gate interface).
type CHERIGate struct{ cheriGate }

var _ Gate = (*CHERIGate)(nil)

// RegisterEntry publishes a domain's sealed code/data pair.
func (g *CHERIGate) RegisterEntry(domain string, code, data cheri.Capability) error {
	if !code.Sealed() || !data.Sealed() {
		return fmt.Errorf("gate: entry pair for %q must be sealed", domain)
	}
	g.entries[domain] = [2]cheri.Capability{code, data}
	return nil
}

// Backend implements Gate.
func (g *CHERIGate) Backend() Backend { return CHERI }

func (*CHERIGate) sealed() {}

// Call implements Gate: CInvoke into the target domain, run fn,
// CInvoke back. Payload buffers cross by reference — the callee
// receives (bounded) capabilities for them, so only the descriptor
// words are marshalled.
func (g *CHERIGate) Call(from, to *Domain, frame CallFrame, fn func() error) error {
	if frame.Deadline != 0 {
		if err := deadlineCheck(g.cpu, CrossingCost(CHERI), from, to, frame.Deadline); err != nil {
			return err
		}
	}
	g.cpu.Charge(clock.CompGate, clock.CostRegisterClear+
		uint64(frame.EntryWords())*clock.CostParamCopyPerWord)
	pair, ok := g.entries[to.Name]
	if !ok {
		return fmt.Errorf("gate: no sealed entry pair for domain %q", to.Name)
	}
	if _, _, err := g.m.Invoke(pair[0], pair[1]); err != nil {
		return fault.Classify(to.Name, pcOf(from, to), fmt.Errorf("gate %s->%s: %w", from.Name, to.Name, err))
	}
	// The callee runs behind a trap boundary: capability bounds/tag
	// violations (and injected corruption) in the target compartment
	// come back as typed fault.Trap errors, and the return CInvoke
	// below still reinstalls the caller's domain.
	callErr := fault.Catch(to.Name, fn)
	if callErr != nil {
		callErr = fault.Classify(to.Name, pcOf(from, to), callErr)
	}
	g.cpu.Charge(clock.CompGate, clock.CostRegisterClear)
	ret, ok := g.entries[from.Name]
	if !ok {
		return fmt.Errorf("gate: no sealed entry pair for caller domain %q", from.Name)
	}
	if _, _, err := g.m.Invoke(ret[0], ret[1]); err != nil {
		return fault.Classify(to.Name, pcOf(from, to), fmt.Errorf("gate %s<-%s return: %w", from.Name, to.Name, err))
	}
	return callErr
}
