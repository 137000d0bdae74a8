// Redis reproduces the paper's Fig. 4/Fig. 5 scenarios interactively:
// a Redis-style key-value server over the simulated stack, measured
// under a chosen compartmentalization, hardening and allocator policy.
//
//	go run ./examples/redis -model nw-sched-rest -backend hodor -payload 50
package main

import (
	"flag"
	"fmt"
	"log"

	"flexos"
)

func main() {
	backendName := flag.String("backend", "mpk", "isolation backend: none, mpk, hodor, vm")
	model := flag.String("model", "nw-only", "compartments: single, nw-only, nw-sched-rest, nw+sched")
	payload := flag.Int("payload", 50, "value size in bytes")
	ops := flag.Int("ops", 400, "requests per measurement")
	op := flag.String("op", "GET", "operation: GET or SET")
	shNet := flag.Bool("sh-netstack", false, "harden the network stack")
	globalAlloc := flag.Bool("global-alloc", false, "use one global allocator")
	verified := flag.Bool("verified-sched", false, "use the verified scheduler")
	flag.Parse()

	backend, err := flexos.ParseBackend(*backendName)
	if err != nil {
		log.Fatal(err)
	}
	cfg := flexos.Config{Backend: backend, Alloc: flexos.AllocPerCompartment}
	cfg.Net.SocketMode = flexos.TCPIPThreadMode
	switch *model {
	case "single":
		cfg.Compartments = flexos.SingleCompartment()
	case "nw-only":
		cfg.Compartments = flexos.NWOnly()
	case "nw-sched-rest":
		cfg.Compartments = flexos.NWSchedRest()
	case "nw+sched":
		cfg.Compartments = flexos.NWPlusSched()
	default:
		log.Fatalf("unknown model %q", *model)
	}
	if backend == flexos.FuncCall {
		cfg.Compartments = flexos.SingleCompartment()
	}
	if *shNet {
		cfg.SH = map[string]flexos.HardeningProfile{
			"netstack": {ASAN: true, StackProtector: true, UBSan: true},
		}
		cfg.Alloc = flexos.AllocPerLibrary
	}
	if *globalAlloc {
		cfg.Alloc = flexos.AllocGlobal
		cfg.Compartments = flexos.SingleCompartment() // global alloc needs one domain
	}
	if *verified {
		cfg.Sched = flexos.SchedVerified
	}

	kind := flexos.OpGET
	if *op == "SET" {
		kind = flexos.OpSET
	}
	res, err := flexos.Run(cfg, flexos.Load{App: flexos.Redis, Op: kind, Payload: *payload, Ops: *ops})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("redis: %d x %s, %dB values, backend %v, model %s\n",
		res.Ops, kind, *payload, backend, *model)
	fmt.Printf("  throughput: %.1f kreq/s\n", res.KReqPerSec)
	fmt.Printf("  domain crossings during measurement: %d (%.2f per request)\n",
		res.Crossings, float64(res.Crossings)/float64(res.Ops))
}
