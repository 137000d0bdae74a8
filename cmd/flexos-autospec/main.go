// Command flexos-autospec generates draft library metadata from
// observed behaviour: it runs the Redis workload on a baseline image
// with a call recorder on the server's observation sink, then renders
// the recorded call graph in the metadata language for review — the
// paper's §5 "methods for (semi-)automatically generating [metadata]
// should be explored", implemented.
//
// Usage:
//
//	flexos-autospec [-payload 50] [-ops 400] [-lint]
package main

import (
	"flag"
	"fmt"
	"os"

	"flexos/internal/core/spec"
	"flexos/internal/harness"
)

func main() {
	payload := flag.Int("payload", 50, "redis value size driving the observation")
	ops := flag.Int("ops", 400, "requests to observe")
	lint := flag.Bool("lint", false, "lint the generated drafts")
	flag.Parse()

	rec, rendered, err := harness.RecordRedisMetadata(*payload, *ops)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flexos-autospec: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("# Observed %d distinct call edges across %d libraries.\n",
		len(rec.Edges()), len(rec.Libraries()))
	fmt.Print(rendered)

	if *lint {
		libs, err := spec.Parse(rendered)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flexos-autospec: generated metadata does not parse: %v\n", err)
			os.Exit(1)
		}
		problems := spec.LintAll(libs)
		for _, p := range problems {
			fmt.Printf("# lint %s\n", p)
		}
		if spec.HasErrors(problems) {
			os.Exit(1)
		}
	}
}
