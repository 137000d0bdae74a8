package fault

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"flexos/internal/cheri"
	"flexos/internal/mem"
	"flexos/internal/mpk"
	"flexos/internal/sh"
)

func TestTrapErrorAndUnwrap(t *testing.T) {
	cause := errors.New("underlying")
	tr := &Trap{Comp: "nw", Kind: KindMPK, PC: "netstack:recv", Addr: 0x5000, Cause: cause}
	msg := tr.Error()
	for _, want := range []string{"mpk-pkey", `"nw"`, "netstack:recv", "0x5000", "underlying"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Error() = %q, missing %q", msg, want)
		}
	}
	if !errors.Is(tr, cause) {
		t.Error("Unwrap does not expose the cause")
	}
}

func TestAsFindsWrappedTrap(t *testing.T) {
	tr := &Trap{Comp: "lc", Kind: KindInjected}
	wrapped := fmt.Errorf("gate: %w", tr)
	got, ok := As(wrapped)
	if !ok || got != tr {
		t.Fatalf("As = (%v, %v), want the original trap", got, ok)
	}
	if _, ok := As(errors.New("plain")); ok {
		t.Fatal("As matched a non-trap error")
	}
	if _, ok := As(nil); ok {
		t.Fatal("As matched nil")
	}
}

func TestClassify(t *testing.T) {
	mpkErr := &mpk.Fault{Addr: 0x2000, Key: 3, Write: true}
	cheriErr := &cheri.Fault{Cap: cheri.Capability{Base: 0x3000, Len: 64}, Op: "load", Detail: "out of bounds"}
	asanErr := &sh.Violation{Addr: 0x4000, Size: 8, Write: true, Kind: "heap-buffer-overflow"}

	tests := []struct {
		name     string
		err      error
		wantKind Kind
		wantAddr mem.Addr
	}{
		{"mpk", mpkErr, KindMPK, 0x2000},
		{"mpk-wrapped", fmt.Errorf("memcpy: %w", mpkErr), KindMPK, 0x2000},
		{"cheri", cheriErr, KindCHERI, 0x3000},
		{"asan", asanErr, KindASAN, 0x4000},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			out := Classify("nw", "pc", tc.err)
			tr, ok := As(out)
			if !ok {
				t.Fatalf("Classify(%v) = %v, not a trap", tc.err, out)
			}
			if tr.Comp != "nw" || tr.Kind != tc.wantKind || tr.Addr != tc.wantAddr {
				t.Fatalf("trap = %+v, want comp=nw kind=%v addr=%#x", tr, tc.wantKind, uint64(tc.wantAddr))
			}
			if !errors.Is(out, tc.err) {
				t.Fatal("mechanism error lost from the chain")
			}
		})
	}

	if Classify("nw", "pc", nil) != nil {
		t.Fatal("Classify(nil) != nil")
	}
	plain := errors.New("not a protection fault")
	if got := Classify("nw", "pc", plain); got != plain {
		t.Fatalf("plain error rewritten: %v", got)
	}
	already := &Trap{Comp: "other", Kind: KindCHERI}
	if got := Classify("nw", "pc", already); got != error(already) {
		t.Fatalf("existing trap rewritten: %v", got)
	}
}

// contain composes the trap boundary as the isolating gates do.
func contain(comp, pc string, fn func() error) error {
	return Classify(comp, pc, Catch(comp, fn))
}

func TestContainRecoversTrapPanic(t *testing.T) {
	err := contain("nw", "netstack:recv", func() error {
		panic(&Trap{Kind: KindInjected, Addr: 0x5000})
	})
	tr, ok := As(err)
	if !ok {
		t.Fatalf("err = %v, want trap", err)
	}
	if tr.Comp != "nw" {
		t.Fatalf("Comp = %q, want filled in by Catch", tr.Comp)
	}
}

func TestContainKeepsExplicitComp(t *testing.T) {
	err := contain("outer", "pc", func() error {
		panic(&Trap{Comp: "inner", Kind: KindInjected})
	})
	tr, _ := As(err)
	if tr == nil || tr.Comp != "inner" {
		t.Fatalf("trap = %+v, want Comp=inner preserved", tr)
	}
}

func TestContainClassifiesReturns(t *testing.T) {
	mpkErr := &mpk.Fault{Addr: 0x2000, Key: 2}
	err := contain("nw", "pc", func() error { return mpkErr })
	if tr, ok := As(err); !ok || tr.Kind != KindMPK {
		t.Fatalf("err = %v, want KindMPK trap", err)
	}
	if err := contain("nw", "pc", func() error { return nil }); err != nil {
		t.Fatalf("clean call returned %v", err)
	}
}

func TestContainRepanicsNonTrap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("simulator-bug panic was swallowed")
		}
	}()
	_ = contain("nw", "pc", func() error { panic("simulator bug") })
}

func TestPolicyRoundTrip(t *testing.T) {
	for _, p := range []Policy{PolicyAbort, PolicyRestart, PolicyDegrade} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = (%v, %v)", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("explode"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestDegradedErrorChain(t *testing.T) {
	tr := &Trap{Comp: "nw", Kind: KindMPK}
	de := &DegradedError{Comp: "nw", Cause: tr}
	if got, ok := As(de); !ok || got != tr {
		t.Fatalf("DegradedError does not expose its trap: %v", de)
	}
}

func injectorPool(t *testing.T) *mem.SharedPool {
	t.Helper()
	a := mem.NewArena(1 << 20)
	h, err := mem.NewHeap(a, 4096, 1<<20-4096, mem.KeyShared)
	if err != nil {
		t.Fatal(err)
	}
	return mem.NewSharedPool(h, nil)
}

func containedCall(in *Injector, lib, comp, fn string) error {
	return contain(comp, lib+":"+fn, func() error {
		in.OnCall(lib, comp, fn)
		return nil
	})
}

func TestInjectorFiresAtExactCount(t *testing.T) {
	in := NewInjector()
	in.Arm(Injection{Lib: "netstack", Fn: "recv", After: 3, Addr: 0x5000})
	for i := 1; i <= 2; i++ {
		if err := containedCall(in, "netstack", "nw", "recv"); err != nil {
			t.Fatalf("call %d trapped early: %v", i, err)
		}
	}
	// Calls to other functions and libraries must not advance the trigger.
	if err := containedCall(in, "netstack", "nw", "send"); err != nil {
		t.Fatalf("unmatched fn trapped: %v", err)
	}
	if err := containedCall(in, "libc", "lc", "recv"); err != nil {
		t.Fatalf("unmatched lib trapped: %v", err)
	}
	err := containedCall(in, "netstack", "nw", "recv")
	tr, ok := As(err)
	if !ok {
		t.Fatalf("3rd matching call did not trap: %v", err)
	}
	if tr.Comp != "nw" || tr.PC != "netstack:recv" || tr.Addr != 0x5000 {
		t.Fatalf("trap = %+v", tr)
	}
	if in.Fired() != 1 || in.LastTrap() != tr {
		t.Fatalf("Fired=%d LastTrap=%v", in.Fired(), in.LastTrap())
	}
}

func TestInjectorIsOneShot(t *testing.T) {
	in := NewInjector()
	in.Arm(Injection{Lib: "libc"})
	if err := containedCall(in, "libc", "lc", "memcpy"); err == nil {
		t.Fatal("After default of 1 did not fire on first call")
	}
	for i := 0; i < 5; i++ {
		if err := containedCall(in, "libc", "lc", "memcpy"); err != nil {
			t.Fatalf("one-shot injection fired again: %v", err)
		}
	}
	if in.Fired() != 1 {
		t.Fatalf("Fired = %d, want 1", in.Fired())
	}
}

func TestInjectorLeaksBufs(t *testing.T) {
	pool := injectorPool(t)
	in := NewInjector()
	in.SetPool(pool)
	in.Arm(Injection{Lib: "netstack", LeakBufs: 3})
	err := containedCall(in, "netstack", "nw", "recv")
	if _, ok := As(err); !ok {
		t.Fatalf("injection did not fire: %v", err)
	}
	if len(in.Leaked()) != 3 || pool.Outstanding() != 3 {
		t.Fatalf("leaked=%d outstanding=%d, want 3 stranded buffers",
			len(in.Leaked()), pool.Outstanding())
	}
}

func TestKindStrings(t *testing.T) {
	kinds := map[Kind]string{
		KindInjected:   "injected",
		KindMPK:        "mpk-pkey",
		KindCHERI:      "cheri",
		KindASAN:       "asan",
		KindSealedPKRU: "sealed-wrpkru",
		KindSched:      "sched",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

// TestNetTimeoutMessages pins the text of the three transport deaths:
// each names what gave up, and every Elapsed reads in timer-wheel ticks.
func TestNetTimeoutMessages(t *testing.T) {
	for _, c := range []struct {
		err  *NetTimeout
		want string
	}{
		{&NetTimeout{PC: "netstack:rtx", Retransmits: 3, Elapsed: 150},
			"fault: net timeout at netstack:rtx: connection dead after 3 retransmits (150 ticks)"},
		{&NetTimeout{PC: "netstack:zwp", Probes: 3, Elapsed: 70},
			"fault: net timeout at netstack:zwp: peer dead after 3 zero-window probes (70 ticks)"},
		{&NetTimeout{PC: "netstack:keepalive", Probes: 4, Elapsed: 10_000},
			"fault: net timeout at netstack:keepalive: peer dead after 4 keepalive probes (10000 ticks)"},
	} {
		if got := c.err.Error(); got != c.want {
			t.Errorf("%s: got %q, want %q", c.err.PC, got, c.want)
		}
	}
}
