package flexos_test

import (
	"testing"

	"flexos"
)

// TestFacadeWorkflow walks the README's typical workflow end to end
// through the public API only.
func TestFacadeWorkflow(t *testing.T) {
	// 1. Parse metadata.
	libs := flexos.DefaultImage()
	if len(libs) != 6 {
		t.Fatalf("DefaultImage: %d libraries", len(libs))
	}

	// 2. Pairwise compatibility: verified scheduler vs wildcard libc.
	var sched, libc *flexos.Library
	for _, l := range libs {
		switch l.Name {
		case "sched":
			sched = l
		case "libc":
			libc = l
		}
	}
	if flexos.Compatible(sched, libc) {
		t.Fatal("sched and wildcard libc must conflict")
	}
	if len(flexos.ExplainConflicts(sched, libc)) == 0 {
		t.Fatal("no conflict explanation")
	}
	hardened, err := flexos.Harden(libc)
	if err != nil {
		t.Fatal(err)
	}
	if !flexos.Compatible(sched, hardened) {
		t.Fatal("hardened libc should cohabit with sched")
	}

	// 3. Compartmentalization by coloring.
	plan, err := flexos.PlanCompartments(libs)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumCompartments() != 2 {
		t.Fatalf("plan uses %d compartments, want 2", plan.NumCompartments())
	}

	// 4. Design-space exploration.
	cands, err := flexos.Explore(libs, flexos.MPKShared)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 16 {
		t.Fatalf("explore found %d candidates", len(cands))
	}
	if best := flexos.MaxSecurityWithinBudget(cands, 5.0); best == nil {
		t.Fatal("no candidate within budget")
	}
	if front := flexos.ParetoFront(cands); len(front) == 0 {
		t.Fatal("empty Pareto front")
	}

	// 5. Build and run a measurement.
	res, err := flexos.Run(flexos.Config{
		Compartments: flexos.NWOnly(),
		Backend:      flexos.MPKShared,
		Alloc:        flexos.AllocPerCompartment,
	}, flexos.Load{App: flexos.Iperf, Bytes: 128 << 10, RecvBuf: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gbps <= 0 || res.Crossings == 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestFacadeBackendParsing(t *testing.T) {
	b, err := flexos.ParseBackend("hodor")
	if err != nil || b != flexos.MPKSwitched {
		t.Fatalf("ParseBackend = %v, %v", b, err)
	}
}

func TestFacadeRedis(t *testing.T) {
	res, err := flexos.Run(flexos.Config{}, flexos.Load{App: flexos.Redis, Op: flexos.OpGET, Payload: 50, Ops: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.KReqPerSec <= 0 {
		t.Fatalf("throughput = %v", res.KReqPerSec)
	}
}

func TestFacadeSpecRoundTrip(t *testing.T) {
	s, err := flexos.ParseSpec("[Memory access] Read(Own); Write(Own)\n[Call] -")
	if err != nil {
		t.Fatal(err)
	}
	if s.Writes.All {
		t.Fatal("parse wrong")
	}
}
