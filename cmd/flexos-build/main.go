// Command flexos-build derives a compartmentalization plan from
// library metadata: pairwise compatibility checking, graph coloring,
// and an explanation of every conflict.
//
// Usage:
//
//	flexos-build [-spec file.flexos] [-harden lib1,lib2] [-v]
//
// Without -spec, the built-in default FlexOS image metadata is used.
// The plan uses as few compartments as coloring.Minimal finds: an
// exact coloring up to coloring.ExactLimit libraries, DSATUR beyond.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"flexos/internal/core/coloring"
	"flexos/internal/core/compat"
	"flexos/internal/core/spec"
)

func main() {
	specPath := flag.String("spec", "", "metadata file (default: built-in image)")
	harden := flag.String("harden", "", "comma-separated libraries to harden (SH variants)")
	verbose := flag.Bool("v", false, "print metadata and all conflicts")
	flag.Parse()

	if err := run(*specPath, *harden, *verbose); err != nil {
		fmt.Fprintf(os.Stderr, "flexos-build: %v\n", err)
		os.Exit(1)
	}
}

func run(specPath, harden string, verbose bool) error {
	var libs []*spec.Library
	if specPath == "" {
		libs = spec.DefaultImage()
		fmt.Println("using built-in default image metadata")
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

	// Metadata is error prone (§5 of the paper): lint before planning.
	problems := spec.LintAll(libs)
	for _, p := range problems {
		fmt.Printf("lint %s\n", p)
	}
	if spec.HasErrors(problems) {
		return fmt.Errorf("metadata has lint errors; refusing to plan")
	}

	if harden != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(harden, ",") {
			want[strings.TrimSpace(name)] = true
		}
		for i, l := range libs {
			if !want[l.Name] {
				continue
			}
			h, err := spec.Harden(l)
			if err != nil {
				return fmt.Errorf("harden %s: %w", l.Name, err)
			}
			libs[i] = h
			delete(want, l.Name)
		}
		for name := range want {
			return fmt.Errorf("unknown library %q in -harden", name)
		}
	}

	if verbose {
		for _, l := range libs {
			fmt.Printf("library %s", l.VariantName())
			if l.Trusted {
				fmt.Print(" (trusted)")
			}
			fmt.Printf(":\n%s\n", indent(l.Spec.String()))
		}
	}

	m := compat.BuildMatrix(libs)
	fmt.Printf("%d libraries, %d conflicting pairs\n", m.Len(), m.EdgeCount())
	if verbose {
		for _, e := range m.Edges() {
			for _, c := range m.Conflicts(e[0], e[1]) {
				fmt.Printf("  conflict: %s\n", c)
			}
		}
	}

	g := coloring.FromMatrix(m)
	asg, heuristic := coloring.Minimal(g)
	algo := "exact"
	if heuristic {
		algo = "dsatur"
	}
	if err := coloring.Validate(g, asg); err != nil {
		return err
	}
	plan := coloring.PlanFromAssignment(m, asg)
	fmt.Printf("plan (%s): %d compartment(s)\n", algo, plan.NumCompartments())
	for i, comp := range plan.Compartments {
		fmt.Printf("  compartment %d: %s\n", i, strings.Join(comp, ", "))
	}
	return nil
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "    " + strings.Join(lines, "\n    ")
}
