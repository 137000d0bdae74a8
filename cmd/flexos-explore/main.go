// Command flexos-explore enumerates the security/performance design
// space of a FlexOS image: every software-hardening variant
// combination, each minimally colored, scored against a workload
// profile, with the two searches from the paper:
//
//   - -budget X: maximize security within a performance budget
//     (X = max slowdown over baseline, e.g. 1.5).
//   - -require no-wildcard-writes | separated:<a>:<b> | hardened:<lib>
//     (repeatable, comma-separated): best performance meeting safety
//     requirements.
//
// Usage:
//
//	flexos-explore [-spec file] [-backend mpk|hodor|vm] [-budget 1.5]
//	               [-require no-wildcard-writes,separated:netstack:sched]
//	               [-pareto] [-measure] [-measured-workload]
//
// The combination count, and a warning for any candidate colored by
// the DSATUR heuristic, are printed after the candidate list.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"flexos/internal/core/explore"
	"flexos/internal/core/gate"
	"flexos/internal/core/spec"
	"flexos/internal/harness"
)

func main() {
	specPath := flag.String("spec", "", "metadata file (default: built-in image)")
	backendName := flag.String("backend", "mpk", "isolation backend: mpk, hodor, vm, none")
	budget := flag.Float64("budget", 0, "max slowdown for the max-security search (0 = skip)")
	require := flag.String("require", "", "comma-separated requirements for the best-perf search")
	pareto := flag.Bool("pareto", false, "print only the Pareto front")
	measure := flag.Bool("measure", false, "run the Redis workload on every candidate (built-in image only)")
	measuredWorkload := flag.Bool("measured-workload", false, "derive call rates and base cost from an observed run")
	flag.Parse()

	if err := run(*specPath, *backendName, *budget, *require, *pareto, *measure, *measuredWorkload); err != nil {
		fmt.Fprintf(os.Stderr, "flexos-explore: %v\n", err)
		os.Exit(1)
	}
}

func run(specPath, backendName string, budget float64, require string, pareto, measure, measuredWorkload bool) error {
	var libs []*spec.Library
	if specPath == "" {
		libs = spec.DefaultImage()
	} else {
		src, err := os.ReadFile(specPath)
		if err != nil {
			return err
		}
		libs, err = spec.Parse(string(src))
		if err != nil {
			return err
		}
	}
	backend, err := gate.ParseBackend(backendName)
	if err != nil {
		return err
	}
	w := explore.DefaultWorkload()
	if measuredWorkload {
		var err error
		if w, err = harness.MeasureWorkload(50, 240); err != nil {
			return err
		}
		fmt.Printf("measured workload: %.0f cycles/op baseline, %d call-rate pairs\n",
			w.BaseCycles, len(w.CallRates))
	}
	cands, err := explore.Explore(libs, backend, w)
	if err != nil {
		return err
	}

	show := cands
	if pareto {
		show = explore.ParetoFront(cands)
		fmt.Printf("Pareto front (%d of %d candidates):\n", len(show), len(cands))
	} else {
		sorted := append([]*explore.Candidate(nil), cands...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].EstCycles < sorted[j].EstCycles })
		show = sorted
		fmt.Printf("%d candidates (backend %v), cheapest first:\n", len(cands), backend)
	}
	var measured []*harness.Result
	if measure {
		load := harness.Load{App: harness.Redis, Op: harness.OpGET, Payload: 50, Ops: 240}
		if measured, err = harness.MeasureCandidates(show, load); err != nil {
			return err
		}
	}
	for i, c := range show {
		if measured != nil {
			// The first candidate shown is the slowdown reference.
			kreq := measured[i].KReqPerSec
			fmt.Printf("  est %6.2fx  measured %6.2fx (%7.1f kreq/s)  %s\n",
				c.Slowdown(w), measured[0].KReqPerSec/kreq, kreq, c.Describe())
			continue
		}
		fmt.Printf("  %6.2fx  %s\n", c.Slowdown(w), c.Describe())
	}
	fmt.Printf("explored %d combinations\n", len(cands))
	heuristic := 0
	for _, c := range cands {
		if c.Plan.Heuristic {
			heuristic++
		}
	}
	if heuristic > 0 {
		fmt.Printf("warning: %d candidate(s) colored by the DSATUR heuristic (exact solver declined); their compartment counts may be non-minimal\n",
			heuristic)
	}

	if budget > 0 {
		best := explore.MaxSecurityWithinBudget(cands, w, budget)
		if best == nil {
			fmt.Printf("\nno candidate within budget %.2fx\n", budget)
		} else {
			fmt.Printf("\nmax security within %.2fx budget:\n  %s\n", budget, best.Describe())
			printPlan(best)
		}
	}

	if require != "" {
		var reqs []explore.Requirement
		for _, r := range strings.Split(require, ",") {
			r = strings.TrimSpace(r)
			switch {
			case r == "no-wildcard-writes":
				reqs = append(reqs, explore.NoWildcardWrites())
			case strings.HasPrefix(r, "separated:"):
				parts := strings.Split(r, ":")
				if len(parts) != 3 {
					return fmt.Errorf("bad requirement %q (want separated:<a>:<b>)", r)
				}
				reqs = append(reqs, explore.SeparatedFrom(parts[1], parts[2]))
			case strings.HasPrefix(r, "hardened:"):
				reqs = append(reqs, explore.Hardened(strings.TrimPrefix(r, "hardened:")))
			default:
				return fmt.Errorf("unknown requirement %q", r)
			}
		}
		best := explore.BestPerfMeetingRequirements(cands, reqs...)
		if best == nil {
			fmt.Println("\nno candidate meets the requirements")
		} else {
			fmt.Printf("\nbest performance meeting requirements:\n  %s\n", best.Describe())
			printPlan(best)
		}
	}
	return nil
}

func printPlan(c *explore.Candidate) {
	for i, comp := range c.Plan.Compartments {
		fmt.Printf("    compartment %d: %s\n", i, strings.Join(comp, ", "))
	}
}
