package harness

import (
	"bytes"
	"testing"

	"flexos/internal/core/build"
	"flexos/internal/core/gate"
	"flexos/internal/trace"
)

// TestAttributionConservation is the observability layer's core
// invariant, across every isolation backend at 1 and 4 vCPUs: the
// attribution assigns every cycle of machine capacity (makespan ×
// vCPUs) to exactly one (vCPU, component) row — per-vCPU sums equal
// the makespan (trailing idle included), and the total equals the
// machine's elapsed time times its vCPU count.
func TestAttributionConservation(t *testing.T) {
	backends := []gate.Backend{
		gate.FuncCall, gate.MPKShared, gate.MPKSwitched, gate.VMRPC, gate.CHERI,
	}
	for _, b := range backends {
		for _, smp := range []int{1, 4} {
			b, smp := b, smp
			t.Run(b.String()+"/"+string(rune('0'+smp))+"vcpu", func(t *testing.T) {
				cfg := build.Config{
					Name: "conservation", Compartments: build.NWOnly(),
					Backend: b, Alloc: build.AllocPerCompartment,
				}
				if smp > 1 {
					cfg.Smp = smp
				}
				var w *build.World
				r, err := Run(cfg, Load{App: Iperf, Conns: 4, Bytes: 1 << 20, RecvBuf: 16 << 10,
					Prep: func(built *build.World) { w = built }})
				if err != nil {
					t.Fatal(err)
				}
				a := r.Attr
				if a == nil {
					t.Fatal("no attribution on Result")
				}
				if a.VCPUs != smp {
					t.Fatalf("attribution covers %d vCPUs, want %d", a.VCPUs, smp)
				}
				if a.Makespan != w.Server.Clock.Makespan() {
					t.Fatalf("attribution makespan %d != clock elapsed %d",
						a.Makespan, w.Server.Clock.Makespan())
				}
				if err := a.Check(); err != nil {
					t.Fatalf("conservation: %v", err)
				}
				if got, want := a.Attributed(), a.Makespan*uint64(smp); got != want {
					t.Fatalf("attributed %d cycles, capacity is %d", got, want)
				}
				// A compartmentalized run must show crossing-class work.
				if by := a.ByClass(); by["crossing"] == 0 {
					t.Fatalf("no crossing-class cycles on backend %s: %v", b, by)
				}
			})
		}
	}
}

// TestAttributionSurvivesSaturatedRing pins the live-counter fix: with
// a trace ring far too small for the run (so it drops most events),
// the attribution and the metrics snapshot must still be exact — they
// read the clock ledgers and live gate counters, never the ring.
func TestAttributionSurvivesSaturatedRing(t *testing.T) {
	cfg := build.Config{
		Name: "saturated", Compartments: build.NWOnly(),
		Backend: gate.MPKShared, Alloc: build.AllocPerCompartment, Smp: 4,
	}
	const tinyRing = 8
	var w *build.World
	load := Load{App: Iperf, Conns: 4, Bytes: 1 << 20, RecvBuf: 16 << 10}
	traced := load
	traced.TraceCap = tinyRing
	traced.Prep = func(built *build.World) { w = built }
	r, err := Run(cfg, traced)
	if err != nil {
		t.Fatal(err)
	}
	ring := r.Trace
	if ring.Dropped() == 0 {
		t.Fatalf("ring of %d held all %d events; the test needs saturation", tinyRing, ring.Total())
	}
	if err := r.Attr.Check(); err != nil {
		t.Fatalf("attribution lost cycles under a saturated ring: %v", err)
	}
	snap := w.Server.MetricsSnapshot()
	if got, want := snap.Counter("gate_crossings"), w.Server.Registry.TotalCrossings(); got != want {
		t.Fatalf("metered crossings %d != registry crossings %d (ring dropped %d)",
			got, want, ring.Dropped())
	}
	if snap.Counter("gate_frames") < snap.Counter("gate_crossings") {
		t.Fatalf("frames %d < crossings %d", snap.Counter("gate_frames"), snap.Counter("gate_crossings"))
	}
	// The same run untraced attributes identically: tracing is
	// observation, not perturbation.
	r2, err := Run(cfg, load)
	if err != nil {
		t.Fatal(err)
	}
	if r.Attr.Attributed() != r2.Attr.Attributed() || r.Attr.Makespan != r2.Attr.Makespan {
		t.Fatalf("traced run attributed %d cy (makespan %d), untraced %d cy (makespan %d)",
			r.Attr.Attributed(), r.Attr.Makespan, r2.Attr.Attributed(), r2.Attr.Makespan)
	}
}

// TestObserveForSmp exercises the binary-facing bundle: conservation
// holds, snapshots carry the live counters, and the trace exports to a
// valid Chrome trace-event document.
func TestObserveForSmp(t *testing.T) {
	obs, err := ObserveFor("smp", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != len(smpConfigs()) {
		t.Fatalf("observed %d images, want %d", len(obs), len(smpConfigs()))
	}
	for _, o := range obs {
		if err := o.Attr.Check(); err != nil {
			t.Fatalf("%s: %v", o.Label, err)
		}
		if o.Snapshot.Counter("gate_crossings") == 0 {
			t.Fatalf("%s: no live crossing counters in snapshot", o.Label)
		}
		var buf bytes.Buffer
		if err := trace.ExportChrome(&buf, o.Events, o.VCPUs); err != nil {
			t.Fatalf("%s: export: %v", o.Label, err)
		}
		if _, err := trace.ValidateChrome(buf.Bytes()); err != nil {
			t.Fatalf("%s: exported trace invalid: %v", o.Label, err)
		}
	}
	// The observed images are runs the sweep itself makes: each one's
	// attribution split equals the sweep's largest-vCPU point.
	res, err := Smp(true)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Series {
		if want, got := s.Points[len(s.Points)-1].Attr, obs[i].Attr.Summary(); got != want {
			t.Errorf("%s: observed split %+v, the sweep measured %+v", obs[i].Label, got, want)
		}
	}
}

// TestObserveForEveryExperiment walks the experiment table in quick
// mode: an entry either refuses to be observed because it boots no
// image through Run, or observes images it boots, each one's
// attribution conserving capacity.
func TestObserveForEveryExperiment(t *testing.T) {
	o := Options{Quick: true, Ops: 64}
	for _, e := range Experiments {
		obs, err := ObserveFor(e.Name, o)
		if e.Images == nil {
			if err == nil {
				t.Errorf("%s boots no image through Run, yet observed %d", e.Name, len(obs))
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		imgs, err := e.Images(o)
		if err != nil {
			t.Fatal(err)
		}
		booted := map[string]bool{}
		for _, img := range imgs {
			booted[img.Cfg.Name] = true
		}
		if len(obs) == 0 {
			t.Errorf("%s: no observation", e.Name)
		}
		for _, ob := range obs {
			if !booted[ob.Label] {
				t.Errorf("%s: observed %q, an image it does not boot", e.Name, ob.Label)
			}
			if err := ob.Attr.Check(); err != nil {
				t.Errorf("%s %s: %v", e.Name, ob.Label, err)
			}
		}
	}
	if _, err := ObserveFor("no-such-experiment", o); err == nil {
		t.Error("unknown experiment observed")
	}
	obs, err := ObserveFor("chaosnet", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 1 || obs[0].Label != "MPK-Sha. NW-only" {
		t.Errorf("quick chaosnet observed %d images, want only its MPK-Sha. NW-only image", len(obs))
	}
}
