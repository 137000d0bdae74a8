package retry

import (
	"errors"
	"math"
	"testing"

	"flexos/internal/clock"
	"flexos/internal/rt"
)

func testEnv() *rt.Env {
	return &rt.Env{Lib: "app", Comp: clock.CompApp, CPU: clock.NewMachine(1)}
}

var errFail = errors.New("boom")

// delays runs a Policy through n failing attempts and returns the
// cycles charged between consecutive tries.
func delays(p Policy) []uint64 {
	env := testEnv()
	var out []uint64
	last := uint64(0)
	tries := 0
	_ = p.Do(env, func() error {
		if tries > 0 {
			now := env.CPU.Cycles()
			out = append(out, now-last)
			last = now
		}
		tries++
		return errFail
	})
	return out
}

// TestDoCapBounds is the regression for the two backoff bugs: a Base
// above Cap drew its first delays uncapped (the cap was applied only
// after doubling), and `delay *= 2` overflowed uint64 for large bases,
// wrapping the backoff to near zero. Every drawn delay must lie in
// [cap/2, cap] once the exponential ramp has saturated, and never
// exceed the cap at any point.
func TestDoCapBounds(t *testing.T) {
	cases := []struct {
		name string
		p    Policy
	}{
		{"base equals cap", Policy{Attempts: 5, Base: 1000, Cap: 1000, Seed: 7}},
		{"base above cap", Policy{Attempts: 5, Base: 1 << 20, Cap: 1000, Seed: 7}},
		{"huge base overflow", Policy{Attempts: 6, Base: math.MaxUint64 - 3, Cap: 1 << 30, Seed: 7}},
		{"huge cap no overflow", Policy{Attempts: 8, Base: 1 << 62, Cap: math.MaxUint64, Seed: 7}},
		{"defaults", Policy{Attempts: 6, Seed: 7}},
		{"tiny", Policy{Attempts: 4, Base: 1, Cap: 2, Seed: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cap := tc.p.Cap
			if cap == 0 {
				cap = DefaultCap
			}
			ds := delays(tc.p)
			if len(ds) == 0 {
				t.Fatal("no delays drawn")
			}
			for i, d := range ds {
				if d > cap {
					t.Errorf("delay %d = %d exceeds cap %d", i, d, cap)
				}
			}
			// Once saturated the draw is uniform in [cap/2, cap]; the
			// last delay of every ramp must already be there when base
			// >= cap from the start.
			if tc.p.Base >= cap {
				for i, d := range ds {
					if d < cap/2 {
						t.Errorf("saturated delay %d = %d below cap/2 = %d", i, d, cap/2)
					}
				}
			}
		})
	}
}

// TestDoExponentialRamp checks the intended growth is intact below the
// cap: expected (pre-jitter) delays for try k are min(base<<k, cap),
// and the drawn delay lies in [expected/2, expected].
func TestDoExponentialRamp(t *testing.T) {
	p := Policy{Attempts: 6, Base: 1000, Cap: 16_000, Seed: 3}
	ds := delays(p)
	want := []uint64{1000, 2000, 4000, 8000, 16000}
	if len(ds) != len(want) {
		t.Fatalf("got %d delays, want %d", len(ds), len(want))
	}
	for i, w := range want {
		if ds[i] < w/2 || ds[i] > w {
			t.Errorf("delay %d = %d outside [%d, %d]", i, ds[i], w/2, w)
		}
	}
}

// TestDoDeterministic checks two runs with one seed charge identical
// cycles, and a different seed diverges.
func TestDoDeterministic(t *testing.T) {
	p := Policy{Attempts: 5, Base: 1000, Cap: 64_000, Seed: 42}
	a, b := delays(p), delays(p)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at delay %d: %d vs %d", i, a[i], b[i])
		}
	}
	p.Seed = 43
	c := delays(p)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds drew identical jitter")
	}
}

// TestDoStopsOnSuccess checks success short-circuits with no backoff
// charge, and the attempt budget is honored.
func TestDoStopsOnSuccess(t *testing.T) {
	env := testEnv()
	tries := 0
	err := Policy{Attempts: 5, Seed: 1}.Do(env, func() error {
		tries++
		if tries == 2 {
			return nil
		}
		return errFail
	})
	if err != nil || tries != 2 {
		t.Fatalf("err=%v tries=%d", err, tries)
	}

	env = testEnv()
	tries = 0
	if err := (Policy{Attempts: 3, Seed: 1}).Do(env, func() error {
		tries++
		return errFail
	}); !errors.Is(err, errFail) || tries != 3 {
		t.Fatalf("err=%v tries=%d", err, tries)
	}

	// Zero policy: one try, no charge.
	env = testEnv()
	tries = 0
	_ = Policy{}.Do(env, func() error { tries++; return errFail })
	if tries != 1 || env.CPU.Cycles() != 0 {
		t.Fatalf("zero policy: tries=%d cycles=%d", tries, env.CPU.Cycles())
	}
}
