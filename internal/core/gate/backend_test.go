package gate

import (
	"strings"
	"testing"

	"flexos/internal/cheri"
	"flexos/internal/clock"
	"flexos/internal/mem"
	"flexos/internal/mpk"
)

// declaredBackends enumerates every Backend constant. A new backend
// added after CHERI is picked up automatically as long as the
// constants stay contiguous: the probe walks until String() falls
// through to the "Backend(n)" default.
func declaredBackends(t *testing.T) []Backend {
	t.Helper()
	var out []Backend
	for b := FuncCall; ; b++ {
		if strings.HasPrefix(b.String(), "Backend(") {
			break
		}
		out = append(out, b)
	}
	if len(out) < 5 {
		t.Fatalf("expected at least 5 declared backends, found %d", len(out))
	}
	return out
}

// TestParseBackendRoundTrips guards the string surface: every declared
// backend's String() must parse back to the same backend, so config
// files written by FormatConfig always load.
func TestParseBackendRoundTrips(t *testing.T) {
	for _, b := range declaredBackends(t) {
		got, err := ParseBackend(b.String())
		if err != nil {
			t.Errorf("ParseBackend(%q) failed: %v", b.String(), err)
			continue
		}
		if got != b {
			t.Errorf("ParseBackend(%q) = %v, want %v", b.String(), got, b)
		}
	}
}

// TestParseBackendTable pins the alias surface and the unknown-value
// behaviour of both directions of the string conversion.
func TestParseBackendTable(t *testing.T) {
	cases := []struct {
		in   string
		want Backend
		ok   bool
	}{
		{"funccall", FuncCall, true},
		{"none", FuncCall, true},
		{"mpk-shared", MPKShared, true},
		{"mpk", MPKShared, true},
		{"erim", MPKShared, true},
		{"mpk-switched", MPKSwitched, true},
		{"hodor", MPKSwitched, true},
		{"vm-rpc", VMRPC, true},
		{"vm", VMRPC, true},
		{"ept", VMRPC, true},
		{"xen", VMRPC, true},
		{"cheri", CHERI, true},
		{"caps", CHERI, true},
		{"capabilities", CHERI, true},
		{"", 0, false},
		{"sgx", 0, false},
		{"MPK", 0, false}, // aliases are case-sensitive
	}
	for _, c := range cases {
		got, err := ParseBackend(c.in)
		if c.ok != (err == nil) || (c.ok && got != c.want) {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	if s := Backend(99).String(); !strings.HasPrefix(s, "Backend(") {
		t.Errorf("Backend(99).String() = %q", s)
	}
}

// TestTransferPolicyPerBackend pins the copy-vs-share axis: backends
// whose compartments can reach the key-0 window pass buffers by
// reference, the rest marshal payload bytes.
func TestTransferPolicyPerBackend(t *testing.T) {
	want := map[Backend]TransferPolicy{
		FuncCall:    TransferShare,
		MPKShared:   TransferShare,
		MPKSwitched: TransferCopy,
		VMRPC:       TransferCopy,
		CHERI:       TransferShare,
	}
	for _, b := range declaredBackends(t) {
		if got := b.Transfer(); got != want[b] {
			t.Errorf("%v.Transfer() = %v, want %v", b, got, want[b])
		}
	}
}

// testGates builds one real gate per backend over a shared arena and
// clock, with the CHERI entry capabilities both test domains need.
func testGates(t *testing.T, cpu *clock.Machine, a, b *Domain) map[Backend]Gate {
	t.Helper()
	arena := mem.NewArena(16 * mem.PageSize)

	cm := cheri.New(arena, cpu)
	cg := NewCHERI(cm, cpu)
	root, err := cm.Root(mem.PageSize, mem.PageSize, cheri.PermRead|cheri.PermWrite|cheri.PermExecute)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Domain{a, b} {
		otype := cm.AllocOType()
		code, err := cm.Seal(root, otype)
		if err != nil {
			t.Fatal(err)
		}
		data, err := cm.Seal(root, otype)
		if err != nil {
			t.Fatal(err)
		}
		if err := cg.RegisterEntry(d.Name, code, data); err != nil {
			t.Fatal(err)
		}
	}

	return map[Backend]Gate{
		FuncCall:    NewFuncCall(cpu),
		MPKShared:   NewMPKShared(mpk.New(arena, cpu), cpu),
		MPKSwitched: NewMPKSwitched(mpk.New(arena, cpu), cpu),
		VMRPC:       NewVMRPC(cpu),
		CHERI:       cg,
	}
}

// TestCrossingCostMatchesGateCharge keeps the explorer's static cost
// table honest: for every backend, an empty-frame Gate.Call through the
// real gate must charge exactly CrossingCost(b) — any per-word or
// fixed-cost drift between the estimator and the implementation shows
// up here.
func TestCrossingCostMatchesGateCharge(t *testing.T) {
	cpu := clock.NewMachine(1)
	a, b := NewDomain("a", 1), NewDomain("b", 2)
	gates := testGates(t, cpu, a, b)
	for _, backend := range declaredBackends(t) {
		g, ok := gates[backend]
		if !ok {
			t.Errorf("no gate under test for backend %v", backend)
			continue
		}
		cpu.Reset()
		if err := g.Call(a, b, CallFrame{}, func() error { return nil }); err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		if got, want := cpu.Cycles(), CrossingCost(backend); got != want {
			t.Errorf("%v: empty-frame Gate.Call charged %d cycles, CrossingCost reports %d",
				backend, got, want)
		}
	}
}

// TestBatchCrossingCostMatchesGateCharge extends the consistency
// check to the batched path: for every backend, carrying N empty
// frames must charge exactly BatchCrossingCost(b, N) — one crossing
// plus N dispatches where the gate implements BatchGate, N full
// crossings where Route.CallBatch would fall back to a loop. Drift
// between the estimator and the batch implementation (a forgotten
// dispatch charge, a double-paid crossing) shows up here.
func TestBatchCrossingCostMatchesGateCharge(t *testing.T) {
	const depth = 8
	cpu := clock.NewMachine(1)
	a, b := NewDomain("a", 1), NewDomain("b", 2)
	gates := testGates(t, cpu, a, b)
	calls := make([]BatchCall, depth)
	ran := 0
	for i := range calls {
		calls[i].Fn = func() error { ran++; return nil }
	}
	for _, backend := range declaredBackends(t) {
		g, ok := gates[backend]
		if !ok {
			t.Errorf("no gate under test for backend %v", backend)
			continue
		}
		cpu.Reset()
		ran = 0
		if bg, isBatch := g.(BatchGate); isBatch {
			bg.CallBatch(a, b, calls, nil)
			for i, c := range calls {
				if c.Err != nil {
					t.Fatalf("%v: frame %d: %v", backend, i, c.Err)
				}
			}
		} else {
			// The Registry falls back to this loop for gates without
			// native batch support.
			for _, c := range calls {
				if err := g.Call(a, b, c.Frame, c.Fn); err != nil {
					t.Fatalf("%v: %v", backend, err)
				}
			}
		}
		if ran != depth {
			t.Errorf("%v: %d of %d frames ran", backend, ran, depth)
		}
		if got, want := cpu.Cycles(), BatchCrossingCost(backend, depth); got != want {
			t.Errorf("%v: %d-frame CallBatch charged %d cycles, BatchCrossingCost reports %d",
				backend, depth, got, want)
		}
	}
}

// TestBatchCrossingCostDegenerateCases pins the estimator's edges: a
// non-positive batch is free, and from depth 2 up — the minimum the
// config layer accepts — a batch never costs more than the same calls
// made one at a time, so the planner never ranks batching as a
// pessimization. (Depth 1 would lose the dispatch overhead on the
// amortizing backends, which is exactly why `batch <comp> 1` is
// elided back to the scalar path.)
func TestBatchCrossingCostDegenerateCases(t *testing.T) {
	for _, b := range declaredBackends(t) {
		if got := BatchCrossingCost(b, 0); got != 0 {
			t.Errorf("BatchCrossingCost(%v, 0) = %d, want 0", b, got)
		}
		if got := BatchCrossingCost(b, -3); got != 0 {
			t.Errorf("BatchCrossingCost(%v, -3) = %d, want 0", b, got)
		}
		for n := 2; n <= 64; n *= 2 {
			batched := BatchCrossingCost(b, n)
			scalar := uint64(n) * CrossingCost(b)
			if batched > scalar {
				t.Errorf("BatchCrossingCost(%v, %d) = %d exceeds %d scalar calls (%d)",
					b, n, batched, n, scalar)
			}
		}
	}
}

// TestCrossingCostCoversAllBackends guards the estimator against the
// silent `default: 0` in CrossingCost: a backend the cost table does
// not know would make the explorer rank every compartmentalization as
// free.
func TestCrossingCostCoversAllBackends(t *testing.T) {
	for _, b := range declaredBackends(t) {
		if CrossingCost(b) == 0 {
			t.Errorf("CrossingCost(%v) = 0; the cost table does not cover it", b)
		}
	}
}
