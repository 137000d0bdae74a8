package build

import (
	"strings"
	"testing"

	"flexos/internal/core/gate"
	"flexos/internal/core/spec"
	"flexos/internal/net"
	"flexos/internal/sh"
)

// TestNormalizeRejectsBadConfigs pins the validation surface: every
// malformed image the build system must refuse, with the reason in
// the error.
func TestNormalizeRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{
			name: "unknown backend",
			cfg:  Config{Backend: gate.Backend(99)},
			want: "unknown backend",
		},
		{
			name: "unknown alloc policy",
			cfg:  Config{Alloc: AllocPolicy(7)},
			want: "allocator policy",
		},
		{
			name: "sh profile for unknown library",
			cfg:  Config{SH: map[string]sh.Profile{"kasan": sh.Full}},
			want: `unknown library "kasan"`,
		},
		{
			name: "empty compartment name",
			cfg:  Config{Compartments: []Compartment{{Libraries: DefaultLibraries}}},
			want: "empty name",
		},
		{
			name: "compartment holds no library",
			cfg: Config{Compartments: []Compartment{
				{Name: "all", Libraries: DefaultLibraries},
				{Name: "empty"},
			}},
			want: "no library",
		},
		{
			name: "duplicate compartment name",
			cfg: Config{Compartments: []Compartment{
				{Name: "a", Libraries: libs("sched", "alloc", "libc")},
				{Name: "a", Libraries: libs("netstack", "app", "rest")},
			}},
			want: "duplicate compartment",
		},
		{
			name: "library in two compartments",
			cfg: Config{Compartments: []Compartment{
				{Name: "a", Libraries: DefaultLibraries},
				{Name: "b", Libraries: libs("sched")},
			}},
			want: `"sched" in both`,
		},
		{
			name: "library assigned nowhere",
			cfg: Config{Compartments: []Compartment{
				{Name: "a", Libraries: libs("sched", "alloc", "libc", "netstack", "app")},
			}},
			want: `"rest" assigned to no compartment`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := normalize(&tc.cfg)
			if err == nil {
				t.Fatalf("normalize accepted %+v", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestNormalizeRejectsBuilderNetFields pins one knob per stack wiring
// field: the builder derives each of these from the image's own knob,
// so a config that sets one directly is refused with the knob to use.
func TestNormalizeRejectsBuilderNetFields(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*net.Config)
		want  string
	}{
		{"IP", func(c *net.Config) { c.IP = net.IP4(10, 0, 0, 9) }, "Net.IP is set by the builder"},
		{"Platform", func(c *net.Config) { c.Platform = net.Xen }, "Net.Platform is set by the builder; use Config.Platform"},
		{"DataPath", func(c *net.Config) { c.DataPath = net.DataPathCopy }, "Net.DataPath is set by the builder; use Config.DataPath"},
		{"RestHard", func(c *net.Config) { c.RestHard = &sh.Hardener{} }, "Net.RestHard is set by the builder; use Config.SH"},
		{"TxBatch", func(c *net.Config) { c.TxBatch = 8 }, "Net.TxBatch is set by the builder; use Config.Batch"},
		{"RxBudget", func(c *net.Config) { c.RxBudget = 8 }, "Net.RxBudget is set by the builder; use Config.Batch"},
		{"NumQueues", func(c *net.Config) { c.NumQueues = 2 }, "Net.NumQueues is set by the builder; use Config.Smp"},
		{"QueueCPU", func(c *net.Config) { c.QueueCPU = []int{0} }, "Net.QueueCPU is set by the builder; use Config.Affinity"},
		{"TCPIPCPU", func(c *net.Config) { c.TCPIPCPU = 1 }, "Net.TCPIPCPU is set by the builder; use Config.Affinity"},
	} {
		t.Run(tc.field, func(t *testing.T) {
			cfg := Config{Net: net.Config{SocketMode: net.TCPIPThreadMode}}
			tc.set(&cfg.Net)
			_, err := normalize(&cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("normalize: err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestNormalizeDefaultsToSingleCompartment: an empty compartment list
// is the no-isolation baseline, not an error.
func TestNormalizeDefaultsToSingleCompartment(t *testing.T) {
	comps, err := normalize(&Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 1 || comps[0].Name != "all" || len(comps[0].Libraries) != len(DefaultLibraries) {
		t.Errorf("got %+v, want the single-compartment default", comps)
	}
}

// TestConfigRoundTrip: FormatConfig output parses back to an
// equivalent config, and re-formatting is a fixed point.
func TestConfigRoundTrip(t *testing.T) {
	cfg := Config{
		Name:         "fig5-nw-sched-rest",
		Compartments: NWSchedRest(),
		Backend:      gate.MPKSwitched,
		Alloc:        AllocPerCompartment,
		SH: map[string]sh.Profile{
			"netstack": sh.Full,
			"app":      {ASAN: true, StackProtector: true},
		},
		Sched:    SchedVerified,
		Platform: net.Xen,
		Net:      net.Config{SocketMode: net.TCPIPThreadMode, DelayedAck: true, RecvBuf: 1 << 16},
	}
	text := FormatConfig(cfg)
	parsed, err := ParseConfig(text)
	if err != nil {
		t.Fatalf("ParseConfig failed on FormatConfig output:\n%s\n%v", text, err)
	}
	if again := FormatConfig(parsed); again != text {
		t.Errorf("round-trip not a fixed point:\nfirst:\n%s\nsecond:\n%s", text, again)
	}
	if parsed.Backend != cfg.Backend || parsed.Alloc != cfg.Alloc || parsed.Sched != cfg.Sched {
		t.Errorf("knobs did not survive: %+v", parsed)
	}
	if len(parsed.Compartments) != 3 {
		t.Errorf("got %d compartments, want 3", len(parsed.Compartments))
	}
	if parsed.SH["app"] != (sh.Profile{ASAN: true, StackProtector: true}) {
		t.Errorf("app profile did not survive: %+v", parsed.SH["app"])
	}
}

// TestParseConfigDiagnostics: parse errors carry the line number and
// an sh none directive clears a profile rather than storing a no-op.
func TestParseConfigDiagnostics(t *testing.T) {
	_, err := ParseConfig("backend mpk\n\nbackend-typo x\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("want a line-3 diagnostic, got %v", err)
	}
	cfg, err := ParseConfig("sh netstack full\nsh netstack none\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.SH) != 0 {
		t.Errorf("sh none left a profile behind: %+v", cfg.SH)
	}
}

// TestGenerateWrappers checks the §5 precondition-wrapper emission:
// the verified scheduler's contracts get one wrapper per guarded
// function, routed through every foreign compartment, and the
// single-compartment baseline emits nothing.
func TestGenerateWrappers(t *testing.T) {
	image := spec.DefaultImage()

	if ws := GenerateWrappers(image, SingleCompartment()); len(ws) != 0 {
		t.Errorf("single-compartment image emitted wrappers: %v", ws)
	}

	ws := GenerateWrappers(image, NWSchedRest())
	if len(ws) != 2 {
		t.Fatalf("got %d wrappers, want 2 (thread_add, thread_rm): %v", len(ws), ws)
	}
	if ws[0].Fn != "thread_add" || ws[1].Fn != "thread_rm" {
		t.Errorf("wrappers out of order: %v, %v", ws[0], ws[1])
	}
	for _, w := range ws {
		if w.Callee != "sched" {
			t.Errorf("wrapper callee %q, want sched", w.Callee)
		}
		if len(w.Checks) == 0 {
			t.Errorf("wrapper %s.%s carries no checks", w.Callee, w.Fn)
		}
		if len(w.Callers) != 2 {
			t.Errorf("wrapper %s.%s lists callers %v, want the two foreign compartments",
				w.Callee, w.Fn, w.Callers)
		}
		for _, c := range w.Callers {
			if c == "sched" {
				t.Errorf("wrapper lists the callee's own compartment as a caller")
			}
		}
	}
}

// TestNewWorldWiring smoke-tests the builder output: per-library
// environments exist, compartment boundaries separate gate domains,
// and tracing records crossings once enabled.
func TestNewWorldWiring(t *testing.T) {
	w, err := NewWorld(Config{
		Name:         "nw-only",
		Compartments: NWOnly(),
		Backend:      gate.MPKShared,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range DefaultLibraries {
		if w.Server.Env(l) == nil {
			t.Fatalf("no environment for %q", l)
		}
	}
	ring := w.Server.EnableTracing(64)
	nw := w.Server.Env("netstack")
	before := nw.CPU.Cycles()
	// A netstack-side allocation crosses into the core compartment's
	// allocator under the global policy.
	if _, err := nw.Malloc(128); err != nil {
		t.Fatal(err)
	}
	if nw.CPU.Cycles() <= before {
		t.Error("allocation consumed no cycles")
	}
	crossed := false
	for _, e := range ring.Events() {
		if e.Kind == "crossing" {
			crossed = true
		}
	}
	if !crossed {
		t.Error("no crossing traced for a cross-compartment allocation")
	}
}
