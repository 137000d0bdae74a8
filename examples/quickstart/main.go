// Quickstart walks the core FlexOS workflow from the paper's §2:
// describe two libraries in the metadata language, discover they
// cannot share a compartment, harden the unsafe one so they can,
// derive a compartment plan for the full image, and run a measurement
// on a built image.
package main

import (
	"fmt"
	"log"

	"flexos"
)

const paperExample = `
# The formally verified scheduler from the paper.
library sched {
  [Memory access] Read(Own,Shared); Write(Own,Shared)
  [Call] alloc::malloc, alloc::free
  [API] thread_add(...); thread_rm(...); yield(...)
  [Requires] *(Read,Own), *(Write,Shared), *(Call,thread_add), *(Call,thread_rm), *(Call,yield)
}

# A component written in an unsafe language whose control/data flow
# may be hijacked.
library unsafec {
  [Memory access] Read(*); Write(*)
  [Call] *
  [Analysis] calls(sched::yield); writes(Own,Shared); reads(Own,Shared)
}
`

func main() {
	// 1. Parse the metadata language.
	libs, err := flexos.ParseLibraries(paperExample)
	if err != nil {
		log.Fatal(err)
	}
	sched, unsafec := libs[0], libs[1]
	fmt.Println("== metadata ==")
	fmt.Print(sched.Spec.String())

	// 2. Pairwise compatibility: the scheduler expects others not to
	// write its memory; the C component might write anywhere.
	fmt.Println("\n== compatibility ==")
	fmt.Printf("sched + unsafec in one compartment? %v\n", flexos.Compatible(sched, unsafec))
	for _, c := range flexos.ExplainConflicts(sched, unsafec) {
		fmt.Printf("  %s\n", c)
	}

	// 3. Software hardening rewrites the metadata: DFI narrows
	// Write(*), CFI narrows Call(*).
	hardened, err := flexos.Harden(unsafec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter SH (%s): compatible? %v\n",
		hardened.VariantName(), flexos.Compatible(sched, hardened))

	// 4. Compartmentalization of the full default image by graph
	// coloring.
	image := flexos.DefaultImage()
	plan, err := flexos.PlanCompartments(image)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== plan for the default image: %d compartments ==\n", plan.NumCompartments())
	for i, comp := range plan.Compartments {
		fmt.Printf("  compartment %d: %v\n", i, comp)
	}

	// 5. Build a runnable image matching the plan and measure it.
	fmt.Println("\n== measurement: iperf, netstack isolated via MPK ==")
	for _, backend := range []flexos.Backend{flexos.FuncCall, flexos.MPKShared, flexos.MPKSwitched} {
		cfg := flexos.Config{
			Compartments: flexos.NWOnly(),
			Backend:      backend,
			Alloc:        flexos.AllocPerCompartment,
		}
		cfg.Net.SocketMode = flexos.TCPIPThreadMode
		if backend == flexos.FuncCall {
			cfg.Compartments = flexos.SingleCompartment()
		}
		res, err := flexos.Run(cfg, flexos.Load{App: flexos.Iperf, Bytes: 1 << 20, RecvBuf: 4096})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14v %8.2f Gb/s  (%d domain crossings)\n",
			backend, res.Gbps, res.Crossings)
	}
}
