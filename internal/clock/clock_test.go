package clock

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestChargeAttribution(t *testing.T) {
	c := New()
	c.Charge(CompNet, 100)
	c.Charge(CompLibC, 50)
	c.Charge(CompNet, 25)
	if got := c.Cycles(); got != 175 {
		t.Fatalf("total = %d, want 175", got)
	}
	if got := c.Component(CompNet); got != 125 {
		t.Fatalf("net = %d, want 125", got)
	}
	by := c.ByComponent()
	if by[CompLibC] != 50 {
		t.Fatalf("libc = %d, want 50", by[CompLibC])
	}
	// The returned map must be a copy.
	by[CompLibC] = 9999
	if c.Component(CompLibC) != 50 {
		t.Fatal("ByComponent leaked internal map")
	}
}

func TestReset(t *testing.T) {
	c := New()
	c.Charge(CompApp, 42)
	c.Reset()
	if c.Cycles() != 0 || c.Component(CompApp) != 0 {
		t.Fatal("Reset did not clear ledger")
	}
}

func TestCyclesToDuration(t *testing.T) {
	// Hz cycles is exactly one second of work.
	if got := CyclesToDuration(Hz); got != time.Second {
		t.Fatalf("CyclesToDuration(Hz) = %v, want 1s", got)
	}
}

func TestGbpsFor(t *testing.T) {
	// 1 Gb of payload in 1 second of cycles => 1 Gbps.
	bytes := uint64(1e9 / 8)
	if got := GbpsFor(bytes, Hz); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("GbpsFor = %v, want 1.0", got)
	}
	if got := GbpsFor(bytes, 0); got != 0 {
		t.Fatalf("GbpsFor with zero cycles = %v, want 0", got)
	}
}

func TestOpsPerSec(t *testing.T) {
	if got := OpsPerSec(1000, Hz); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("OpsPerSec = %v, want 1000", got)
	}
	if got := OpsPerSec(5, 0); got != 0 {
		t.Fatalf("OpsPerSec with zero cycles = %v, want 0", got)
	}
}

func TestNanoseconds(t *testing.T) {
	// 2.1 cycles = 1ns at 2.1GHz.
	if got := Nanoseconds(21); math.Abs(got-10) > 1e-9 {
		t.Fatalf("Nanoseconds(21) = %v, want 10", got)
	}
}

func TestContextSwitchCalibration(t *testing.T) {
	// The paper reports 76.6ns (C) and 218.6ns (verified).
	c := Nanoseconds(CostCtxSwitch)
	v := Nanoseconds(CostVerifiedCtxSwitch)
	if math.Abs(c-76.6) > 1.0 {
		t.Errorf("C scheduler switch = %.1fns, want ~76.6ns", c)
	}
	if math.Abs(v-218.6) > 1.0 {
		t.Errorf("verified scheduler switch = %.1fns, want ~218.6ns", v)
	}
	if ratio := v / c; ratio < 2.5 || ratio > 3.5 {
		t.Errorf("verified/C ratio = %.2f, want ~3x", ratio)
	}
}

func TestCopyCycles(t *testing.T) {
	cases := []struct {
		n    int
		want uint64
	}{
		{0, 0}, {-5, 0}, {1, 1}, {16, 1}, {17, 2}, {1024, 64},
	}
	for _, tc := range cases {
		if got := CopyCycles(tc.n); got != tc.want {
			t.Errorf("CopyCycles(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestCostHelpersMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int(a), int(a)+int(b)
		return CopyCycles(x) <= CopyCycles(y) &&
			ChecksumCycles(x) <= ChecksumCycles(y) &&
			ASANCheckCycles(x) <= ASANCheckCycles(y) &&
			RESPParseCycles(x) <= RESPParseCycles(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
