package build

import (
	"strings"
	"testing"
)

// TestSmpConfigRoundTrip checks that the smp directive parses,
// validates, and survives the FormatConfig round trip, including the
// default-elision rule (smp 1 disappears).
func TestSmpConfigRoundTrip(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		wantSmp int
	}{
		{
			name:    "smp 4",
			src:     "backend mpk-shared\nsmp 4\n",
			wantSmp: 4,
		},
		{
			name:    "smp 1 elides to default",
			src:     "backend funccall\nsmp 1\n",
			wantSmp: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := ParseConfig(tc.src)
			if err != nil {
				t.Fatalf("ParseConfig: %v", err)
			}
			if cfg.Smp != tc.wantSmp {
				t.Fatalf("Smp = %d, want %d", cfg.Smp, tc.wantSmp)
			}
			once := FormatConfig(cfg)
			cfg2, err := ParseConfig(once)
			if err != nil {
				t.Fatalf("reparse of formatted config: %v\n%s", err, once)
			}
			if twice := FormatConfig(cfg2); once != twice {
				t.Fatalf("format not a fixpoint:\n%s\nvs\n%s", once, twice)
			}
		})
	}
}

// TestSmpConfigRejects checks that invalid smp directives are rejected
// with a diagnostic, not silently accepted.
func TestSmpConfigRejects(t *testing.T) {
	cases := []struct {
		name string
		src  string
		frag string // expected substring of the error
	}{
		{"smp zero", "smp 0\n", "smp"},
		{"smp negative", "smp -3\n", "smp"},
		{"smp non-numeric", "smp lots\n", "smp"},
		// NIC queue k interrupts vCPU k mod n and the tcpip thread runs
		// on vCPU 0; no directive moves them.
		{"affinity directive", "smp 2\naffinity queue1 0\n", `unknown directive "affinity"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseConfig(tc.src)
			if err == nil {
				t.Fatalf("ParseConfig accepted %q", tc.src)
			}
			if !strings.Contains(strings.ToLower(err.Error()), tc.frag) {
				t.Fatalf("error %q does not mention %q", err, tc.frag)
			}
		})
	}
}
