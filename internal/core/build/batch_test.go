package build

import (
	"strings"
	"testing"

	"flexos/internal/rt"
)

func TestBatchDirectiveRoundTrip(t *testing.T) {
	src := "backend mpk-switched\n" +
		"compartment nw netstack\n" +
		"compartment lc libc\n" +
		"compartment core sched alloc app rest\n" +
		"batch nw 16\n" +
		"batch core 4\n"
	cfg, err := ParseConfig(src)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Batch["nw"] != 16 || cfg.Batch["core"] != 4 {
		t.Fatalf("Batch = %v", cfg.Batch)
	}
	out := FormatConfig(cfg)
	// Deterministic output: depths are emitted sorted by compartment.
	coreIdx := strings.Index(out, "batch core 4\n")
	nwIdx := strings.Index(out, "batch nw 16\n")
	if coreIdx < 0 || nwIdx < 0 || coreIdx > nwIdx {
		t.Fatalf("batch lines missing or unsorted:\n%s", out)
	}
	cfg2, err := ParseConfig(out)
	if err != nil {
		t.Fatalf("formatted config failed to reparse: %v\n%s", err, out)
	}
	if len(cfg2.Batch) != 2 || cfg2.Batch["nw"] != 16 || cfg2.Batch["core"] != 4 {
		t.Fatalf("round-trip Batch = %v", cfg2.Batch)
	}
}

func TestBatchDefaultIsElided(t *testing.T) {
	// Depth 1 dispatches one call per crossing — the default, so the
	// entry is dropped (cf. onfault abort, overload depth 0).
	src := "backend mpk-shared\n" +
		"compartment nw netstack\n" +
		"compartment core sched alloc libc app rest\n" +
		"batch nw 16\n" +
		"batch nw 1\n"
	cfg, err := ParseConfig(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Batch) != 0 {
		t.Fatalf("Batch = %v, want empty", cfg.Batch)
	}
	if out := FormatConfig(cfg); strings.Contains(out, "batch") {
		t.Fatalf("default depth emitted:\n%s", out)
	}
}

func TestBatchValidation(t *testing.T) {
	base := "backend mpk-shared\ncompartment nw netstack\ncompartment core sched alloc libc app rest\n"
	cases := []struct {
		name, directive string
	}{
		{"unknown compartment", "batch ghost 4\n"},
		{"zero depth", "batch nw 0\n"},
		{"negative depth", "batch nw -4\n"},
		{"non-numeric depth", "batch nw lots\n"},
		{"missing args", "batch nw\n"},
		{"extra args", "batch nw 4 shed\n"},
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
	cfg.Batch = map[string]int{"nw": 1}
	if _, err := NewWorld(cfg); err == nil {
		t.Error("stored depth 1 accepted by NewWorld")
	}
	cfg.Batch = map[string]int{"ghost": 8}
	if _, err := NewWorld(cfg); err == nil {
		t.Error("depth for unknown compartment accepted by NewWorld")
	}
}

func TestBatchWiringReachesNetAndEnv(t *testing.T) {
	// A depth on the compartment holding "rest" batches tx doorbells, a
	// depth on the netstack compartment sets the NAPI rx budget, and
	// every binding reads the depth of its callee's compartment.
	src := "backend mpk-switched\n" +
		"compartment nw netstack\n" +
		"compartment core sched alloc libc app rest\n" +
		"batch nw 16\n" +
		"batch core 8\n"
	cfg, err := ParseConfig(src)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ns := rt.Bind(w.Server.Env("libc"), "netstack")
	sc := rt.Bind(w.Server.Env("app"), "sched")
	clientNS := rt.Bind(w.Client.Env("libc"), "netstack")
	if d := ns.Depth(); d != 16 {
		t.Fatalf("libc -> netstack Depth = %d, want 16", d)
	}
	if d := sc.Depth(); d != 8 {
		t.Fatalf("app -> sched Depth = %d, want 8", d)
	}
	// The client shares the batch plan so pipelined sends batch there too.
	if d := clientNS.Depth(); d != 16 {
		t.Fatalf("client libc -> netstack Depth = %d, want 16", d)
	}
}
