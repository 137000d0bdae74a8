package harness

import (
	"fmt"
	"strings"

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

// MeasuredCandidate pairs a candidate with its measured throughput.
type MeasuredCandidate struct {
	Candidate  *explore.Candidate
	KReqPerSec float64
	// Slowdown is measured against the first (baseline) candidate
	// handed to MeasureCandidates.
	Slowdown float64
}

// MeasureCandidates runs the Redis workload on every candidate and
// reports measured throughput — the ground truth the explorer's cost
// estimates approximate. The first result's throughput is the
// slowdown reference.
func MeasureCandidates(cands []*explore.Candidate, op RedisOp, payload, ops int) ([]MeasuredCandidate, error) {
	out := make([]MeasuredCandidate, 0, len(cands))
	var base float64
	for _, c := range cands {
		cfg, err := CandidateConfig(c)
		if err != nil {
			return nil, err
		}
		cfg.Net = tcpipThread
		r, err := Run(cfg, Load{App: Redis, Op: op, Payload: payload, Ops: ops})
		if err != nil {
			return nil, fmt.Errorf("measuring %s: %w", c.Describe(), err)
		}
		if base == 0 {
			base = r.KReqPerSec
		}
		out = append(out, MeasuredCandidate{
			Candidate:  c,
			KReqPerSec: r.KReqPerSec,
			Slowdown:   base / r.KReqPerSec,
		})
	}
	return out, nil
}
