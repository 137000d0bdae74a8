package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profile of the traced run (the gzipped
// protobuf runtime/pprof writes) and buckets every sample by the
// simulator module it was spent for. The decoder covers just the
// profile.proto fields the bucketing needs.

// selfShares returns each bucket's share of the profile's samples and
// the sample count. A sample belongs to its innermost flexos/internal
// frame's module (core/build -> "build", app/redis -> "redis"), so
// runtime work such as arena zeroing counts toward the simulator code
// that caused it. Samples with no simulator frame go to "bench" when the
// benchmark's own code is on the stack and to "gc" otherwise.
func selfShares(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	var (
		strs     []string
		funcName = map[uint64]int64{}    // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples  [][]uint64              // location ids, leaf first
		counts   []int64
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs []uint64
			var n int64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendPacked(locs, wire, v, b)
				case 2:
					if vals := appendPacked(nil, wire, v, b); len(vals) > 0 && n == 0 {
						n = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, locs)
			counts = append(counts, n)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	name := func(fn uint64) string {
		if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	totals := map[string]int64{}
	var all int64
	for i, locs := range samples {
		totals[bucketOf(locs, locFuncs, name)] += counts[i]
		all += counts[i]
	}
	shares := make(map[string]float64, len(totals))
	for k, v := range totals {
		shares[k] = float64(v) / float64(max(all, 1))
	}
	return shares, int(all), nil
}

// bucketOf walks a sample's stack from the leaf outwards.
func bucketOf(locs []uint64, locFuncs map[uint64][]uint64, name func(uint64) string) string {
	bench := false
	for _, l := range locs {
		for _, fn := range locFuncs[l] {
			n := name(fn)
			if m, ok := moduleOf(n); ok {
				return m
			}
			if n == "runtime.GC" {
				return "gc"
			}
			if strings.HasPrefix(n, "main.") {
				bench = true
			}
		}
	}
	if bench {
		return "bench"
	}
	return "gc"
}

// moduleOf maps a function name such as
// "flexos/internal/core/build.(*World).x" to its module's last path
// element ("build").
func moduleOf(fn string) (string, bool) {
	const prefix = "flexos/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	path := fn[len(prefix):]
	slash := strings.LastIndexByte(path, '/')
	dot := strings.IndexByte(path[slash+1:], '.')
	if dot < 0 {
		return "", false
	}
	return path[slash+1 : slash+1+dot], true
}

// appendPacked appends a repeated varint field's values, which the
// encoder may write packed (one length-delimited run) or one by one.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// fields calls fn for every field of a protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func fields(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
