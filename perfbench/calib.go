package main

import (
	"slices"
	"time"
)

// The host this benchmark runs on is shared: its speed drifts by a
// quarter or more over seconds to minutes, as other tenants come and go,
// which no run length averages out. Every run is therefore paired with a
// fixed calibration kernel timed just before it, and host times are
// reported at a reference speed: measured time x refCalibration / the
// kernel's time. The kernel is made of the host operations the simulator
// spends its time on — zeroing memory, string-keyed map updates and
// goroutine hand-offs — and shares no code with the simulator, so a
// change to the simulator moves the reported times and never the scale.

// refCalibration is the kernel's time on the reference host (a 2-vCPU
// Xeon at 2.0 GHz, quiet). Scaled times read in that host's milliseconds.
const refCalibration = 2 * time.Millisecond

var (
	calArena = make([]byte, 2<<20)
	calMap   = map[string]uint64{}
	calKeys  = []string{"gate", "netstack", "libc", "scheduler", "app", "alloc", "copy", "vmm", "sh", "rest", "idle", "fault"}
)

// calibrate times one pass of the calibration kernel.
func calibrate() time.Duration {
	start := time.Now()
	for i := 0; i < 2; i++ {
		clear(calArena)
	}
	for i := 0; i < 20000; i++ {
		calMap[calKeys[i%len(calKeys)]] += uint64(i)
	}
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
		close(pong)
	}()
	for i := 0; i < 2000; i++ {
		ping <- struct{}{}
		<-pong
	}
	close(ping)
	<-pong // the hand-off goroutine has exited
	return time.Since(start)
}

// scaled converts a host time measured next to calibration cal to the
// reference speed.
func scaled(d, cal time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(refCalibration) / float64(cal))
}

// smooth replaces each calibration by the median of it and its four
// neighbours on either side. One 2 ms sample is noisy; the host's speed
// states last seconds, longer than nine runs of any workload.
func smooth(cals []time.Duration) []time.Duration {
	out := make([]time.Duration, len(cals))
	for i := range cals {
		win := slices.Clone(cals[max(i-4, 0):min(i+5, len(cals))])
		slices.Sort(win)
		out[i] = win[len(win)/2]
	}
	return out
}
