package build

import (
	"strings"
	"testing"

	"flexos/internal/rt"
)

func TestOverloadDirectiveRoundTrip(t *testing.T) {
	src := "backend mpk-switched\n" +
		"compartment nw netstack\n" +
		"compartment lc libc\n" +
		"compartment core sched alloc app rest\n" +
		"overload nw\n" +
		"overload lc\n" +
		"overload nw\n" +
		"breaker nw 4 256 40000\n"
	cfg, err := ParseConfig(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Overload) != 2 || !cfg.Overload["nw"] || !cfg.Overload["lc"] {
		t.Fatalf("Overload = %v, want nw and lc", cfg.Overload)
	}
	if cfg.Breaker["nw"] != (rt.BreakerSpec{Threshold: 4, Window: 256, Cooldown: 40000}) {
		t.Fatalf("Breaker[nw] = %+v", cfg.Breaker["nw"])
	}
	out := FormatConfig(cfg)
	// Deterministic output: compartments are emitted sorted.
	lcIdx := strings.Index(out, "overload lc\n")
	nwIdx := strings.Index(out, "overload nw\n")
	if lcIdx < 0 || nwIdx < 0 || lcIdx > nwIdx {
		t.Fatalf("overload lines missing or unsorted:\n%s", out)
	}
	if !strings.Contains(out, "breaker nw 4 256 40000\n") {
		t.Fatalf("breaker line missing:\n%s", out)
	}
	cfg2, err := ParseConfig(out)
	if err != nil {
		t.Fatalf("formatted config failed to reparse: %v\n%s", err, out)
	}
	if len(cfg2.Overload) != 2 || !cfg2.Overload["nw"] || !cfg2.Overload["lc"] ||
		len(cfg2.Breaker) != 1 || cfg2.Breaker["nw"] != cfg.Breaker["nw"] {
		t.Fatalf("round-trip Overload = %v Breaker = %v", cfg2.Overload, cfg2.Breaker)
	}
}

func TestOverloadDefaultsAreElided(t *testing.T) {
	// Threshold 0 never opens: that is the default, so the entry is
	// dropped (cf. onfault abort), and an image that arms nothing
	// formats no overload-control line.
	src := "backend mpk-shared\n" +
		"compartment nw netstack\n" +
		"compartment core sched alloc libc app rest\n" +
		"breaker nw 4 128 1000\n" +
		"breaker nw 0 128 1000\n"
	cfg, err := ParseConfig(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Overload) != 0 || len(cfg.Breaker) != 0 {
		t.Fatalf("Overload = %v Breaker = %v, want both empty", cfg.Overload, cfg.Breaker)
	}
	out := FormatConfig(cfg)
	if strings.Contains(out, "overload") || strings.Contains(out, "breaker") {
		t.Fatalf("default specs emitted:\n%s", out)
	}
}

func TestOverloadValidation(t *testing.T) {
	base := "backend mpk-shared\ncompartment nw netstack\ncompartment core sched alloc libc app rest\n"
	cases := []struct {
		name, directive string
	}{
		{"unknown compartment", "overload ghost\n"},
		{"missing compartment", "overload\n"},
		// The depth and policy arguments are gone: admission sheds on an
		// expired deadline alone, so the old form is refused, not
		// silently read as armed.
		{"queue depth and policy", "overload nw 8 shed\n"},
		{"deadline policy", "overload nw 0 deadline\n"},
		{"breaker unknown compartment", "breaker ghost 4 128 1000\n"},
		{"breaker negative threshold", "breaker nw -4 128 1000\n"},
		{"breaker threshold above window", "breaker nw 200 128 1000\n"},
		{"breaker missing args", "breaker nw 4\n"},
	}
	for _, tc := range cases {
		if _, err := ParseConfig(base + tc.directive); err == nil {
			t.Errorf("%s: %q accepted", tc.name, strings.TrimSpace(tc.directive))
		}
	}
	// The world build re-runs the same validation on hand-built configs
	// that never went through the parser.
	cfg, err := ParseConfig(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []map[string]bool{{"ghost": true}, {"nw": false}} {
		cfg.Overload = set
		if _, err := NewWorld(cfg); err == nil {
			t.Errorf("Overload %v accepted by NewWorld", set)
		}
	}
}
