// Command flexos-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	flexos-bench -exp <name>|all [-quick] [-ops N]
//	            [-metrics] [-profile trace.json] [-metrics-out attribution.json] [-autotune-out report.json]
//
// The experiment names, and the order -exp all runs them in, are the
// entries of harness.Experiments; -help lists them.
//
// -metrics prints a per-compartment cycle-attribution table for each
// image of the selected experiment, reconciled against the machine's
// elapsed time (the conservation line). -profile writes a Chrome
// trace-event timeline (chrome://tracing, Perfetto) of the first
// observed image; -metrics-out writes the attribution and live-counter
// snapshots of every observed image as JSON.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"flexos/internal/harness"
	"flexos/internal/trace"
)

func main() {
	var names []string
	for _, e := range harness.Experiments {
		names = append(names, e.Name)
	}
	exp := flag.String("exp", "all", "experiment: "+strings.Join(append(names, "all"), ", "))
	quick := flag.Bool("quick", false, "thin sweeps for a faster run")
	ops := flag.Int("ops", 300, "redis requests per measurement")
	metricsFlag := flag.Bool("metrics", false, "print per-compartment cycle-attribution tables for the selected experiment")
	profile := flag.String("profile", "", "write a Chrome trace-event timeline of the first observed image to this file")
	metricsOut := flag.String("metrics-out", "", "write attribution + metrics snapshots of the observed images as JSON to this file")
	autotuneOut := flag.String("autotune-out", "", "write the autotune model-validation report as JSON to this file")
	flag.Parse()

	opt := harness.Options{Quick: *quick, Ops: *ops, AutotuneOut: *autotuneOut}
	exps, err := harness.Select(*exp)
	if err != nil {
		fail(err)
	}
	for _, e := range exps {
		out, err := e.Run(opt)
		if err != nil {
			fail(err)
		}
		fmt.Println(out)
	}
	if *metricsFlag || *profile != "" || *metricsOut != "" {
		if err := observe(*exp, opt, *metricsFlag, *profile, *metricsOut); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "flexos-bench: %v\n", err)
	os.Exit(1)
}

// observe runs the instrumented observability pass over the selected
// experiment's images and emits the requested outputs. Every
// attribution is conservation-checked (ObserveFor fails otherwise), so
// a table that prints is a table that reconciles with clock elapsed
// time; the written Chrome trace is schema-validated before the file
// lands.
func observe(exp string, opt harness.Options, printTables bool, profile, metricsOut string) error {
	obs, err := harness.ObserveFor(exp, opt)
	if err != nil {
		return err
	}
	if printTables {
		for _, o := range obs {
			fmt.Printf("=== %s (backend %s) ===\n", o.Label, o.Backend)
			fmt.Print(o.Attr.Format())
			if o.DroppedEvents > 0 {
				fmt.Printf("  trace ring: %d of %d events retained (attribution reads live counters, unaffected)\n",
					uint64(len(o.Events)), o.TotalEvents)
			}
			fmt.Println()
		}
	}
	if profile != "" {
		o := obs[0]
		var buf bytes.Buffer
		if err := trace.ExportChrome(&buf, o.Events, o.VCPUs); err != nil {
			return fmt.Errorf("profile: %w", err)
		}
		n, err := trace.ValidateChrome(buf.Bytes())
		if err != nil {
			return fmt.Errorf("profile: generated trace failed validation: %w", err)
		}
		if err := os.WriteFile(profile, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("profile: wrote %d events (%s) to %s\n", n, o.Label, profile)
	}
	if metricsOut != "" {
		b, err := json.MarshalIndent(obs, "", "  ")
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if err := os.WriteFile(metricsOut, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("metrics: wrote %d image snapshot(s) to %s\n", len(obs), metricsOut)
	}
	return nil
}
