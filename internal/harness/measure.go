package harness

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"flexos/internal/core/build"
	"flexos/internal/core/explore"
	"flexos/internal/sh"
)

// CandidateConfig turns a design-space candidate (a variant choice
// plus its coloring) into a buildable image configuration: one
// compartment per color, SH profiles for the hardened variants, and
// the candidate's backend.
func CandidateConfig(c *explore.Candidate) (build.Config, error) {
	cfg := build.Config{
		Name:    "candidate",
		Backend: c.Backend,
		Alloc:   build.AllocPerLibrary,
	}
	known := map[string]bool{}
	for _, l := range build.DefaultLibraries {
		known[l] = true
	}
	for i, comp := range c.Plan.Compartments {
		bc := build.Compartment{Name: fmt.Sprintf("comp%d", i)}
		for _, variant := range comp {
			base := variant
			if p := strings.Index(variant, "+"); p >= 0 {
				base = variant[:p]
			}
			if !known[base] {
				return cfg, fmt.Errorf("harness: candidate library %q is not a default image library", base)
			}
			bc.Libraries = append(bc.Libraries, base)
			if base != variant {
				if cfg.SH == nil {
					cfg.SH = make(map[string]sh.Profile)
				}
				cfg.SH[base] = SHProfile
			}
		}
		cfg.Compartments = append(cfg.Compartments, bc)
	}
	return cfg, nil
}

// autotuneConfig is the image MeasureCandidates boots for a candidate:
// CandidateConfig over the tcpip thread.
func autotuneConfig(c *explore.Candidate) (build.Config, error) {
	cfg, err := CandidateConfig(c)
	cfg.Name = fmt.Sprintf("autotune-%s-c%d-h%d", c.Backend, c.Plan.NumCompartments(), c.HardenedLibs)
	cfg.Net = tcpipThread
	return cfg, err
}

// gateSignature canonicalizes what determines a candidate's measured
// cost: the compartment partition, the hardened set, and the backend.
// A single-compartment candidate never crosses a gate, so its backend
// is irrelevant to the measurement and is dropped from the key — the
// all-hardened combination, on every backend's front, boots once.
func gateSignature(c *explore.Candidate) string {
	groups := make([]string, 0, len(c.Plan.Compartments))
	for _, comp := range c.Plan.Compartments {
		libs := append([]string(nil), comp...)
		sort.Strings(libs)
		groups = append(groups, strings.Join(libs, ","))
	}
	sort.Strings(groups)
	be := "-"
	if c.SeparatedPairs > 0 {
		be = c.Backend.String()
	}
	return be + "|" + strings.Join(groups, ";")
}

// twins maps every candidate to the first one with its gate signature:
// the candidate whose boot it shares.
func twins(cands []*explore.Candidate) []int {
	first := make(map[string]int, len(cands))
	out := make([]int, len(cands))
	for i, c := range cands {
		sig := gateSignature(c)
		if _, ok := first[sig]; !ok {
			first[sig] = i
		}
		out[i] = first[sig]
	}
	return out
}

// MeasureCandidates boots every candidate's image under load and
// returns one Result per candidate, in candidate order — the ground
// truth the explorer's cost estimates approximate. Twins (candidates
// with one gate signature) share a single boot and its *Result. Boots
// run on GOMAXPROCS workers; each is its own world, so the results do
// not depend on the pool size.
func MeasureCandidates(cands []*explore.Candidate, load Load) ([]*Result, error) {
	twin := twins(cands)
	next := make(chan int, len(cands))
	for i, j := range twin {
		if i == j {
			next <- i
		}
	}
	close(next)
	runs := make([]*Result, len(cands))
	errs := make([]error, len(cands))
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(next)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				cfg, err := autotuneConfig(cands[i])
				if err == nil {
					runs[i], err = Run(cfg, load)
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	for i, j := range twin {
		if errs[j] != nil {
			return nil, fmt.Errorf("measuring %s: %w", cands[j].Describe(), errs[j])
		}
		runs[i] = runs[j]
	}
	return runs, nil
}
