package build

import (
	"testing"

	"flexos/internal/core/gate"
)

// TestCrossingDoesNotAllocate pins that a gate call through the
// registry of a booted image, single or batched, allocates nothing on
// any backend: the crossing ledger, the sink check and the trap
// boundary all run on fixed storage, and the trap PC is only built when
// a call fails.
func TestCrossingDoesNotAllocate(t *testing.T) {
	for _, b := range []gate.Backend{gate.FuncCall, gate.MPKShared, gate.MPKSwitched, gate.VMRPC, gate.CHERI} {
		t.Run(b.String(), func(t *testing.T) {
			w, err := NewWorld(Config{Name: "alloc", Compartments: NWOnly(), Backend: b, Alloc: AllocPerCompartment})
			if err != nil {
				t.Fatal(err)
			}
			reg := w.Server.Registry
			frame := gate.CallFrame{ArgWords: 3, RetWords: 1}
			nop := func() error { return nil }
			frames := []gate.CallFrame{frame, frame, frame, frame}
			fns := []func() error{nop, nop, nop, nop}
			errs := make([]error, len(frames))
			var callErr error
			if n := testing.AllocsPerRun(100, func() {
				if err := reg.CallWithFrame("app", "netstack", "recv", frame, nop); err != nil {
					callErr = err
				}
			}); n != 0 {
				t.Errorf("CallWithFrame allocates %.1f times per call", n)
			}
			if n := testing.AllocsPerRun(100, func() {
				for _, err := range reg.CallBatch("app", "netstack", "recv", frames, fns, errs) {
					if err != nil {
						callErr = err
					}
				}
			}); n != 0 {
				t.Errorf("CallBatch allocates %.1f times per batch", n)
			}
			if callErr != nil {
				t.Fatal(callErr)
			}
			if reg.TotalCrossings() == 0 {
				t.Fatal("no crossing was made")
			}
		})
	}
}
