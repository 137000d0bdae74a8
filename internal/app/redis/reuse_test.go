package redis

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"testing/quick"

	"flexos/internal/core/build"
	"flexos/internal/core/gate"
	"flexos/internal/net"
	"flexos/internal/sched"
)

// TestPipelinedRequestAllocs pins that a warm pipelined command
// allocates nothing on the host, on either machine: client encoding and
// reply views, server parsing, command lookup, reply framing, deferred
// reply copies, store lookups of existing keys and the tcpip thread's
// mailbox all run on reused scratch. After 50 warm-up batches, 500
// depth-8 batches of 6 GET and 2 SET on existing keys must average
// under 0.05 heap objects per command (before the scratch, these images
// read 8.4, 7.3 and 6.8).
func TestPipelinedRequestAllocs(t *testing.T) {
	const (
		keys    = 16
		depth   = 8
		warmup  = 50
		batches = 500
		limit   = 0.05
	)
	redisKV := build.Config{
		Compartments: build.NWSchedRest(),
		Backend:      gate.MPKSwitched,
		Alloc:        build.AllocPerCompartment,
		Batch:        map[string]int{"core": depth},
	}
	redisKV.Net.SocketMode = net.TCPIPThreadMode
	unbatched := redisKV
	unbatched.Batch = nil
	direct := build.Config{
		Compartments: build.NWOnly(),
		Backend:      gate.MPKShared,
		Alloc:        build.AllocPerCompartment,
	}
	direct.Net.SocketMode = net.DirectMode
	images := []struct {
		name string
		cfg  build.Config
	}{
		{"mpk-switched-batched-tcpip", redisKV},
		{"mpk-switched-tcpip", unbatched},
		{"mpk-shared-nw-direct", direct},
	}

	// The session's commands and replies, built before anything is
	// counted: each key holds one value, which its SETs rewrite.
	key := func(k int) []byte { return []byte("key:" + strconv.Itoa(k)) }
	value := func(k int) []byte { return bytes.Repeat([]byte{'a' + byte(k)}, 48+k) }
	var prime [][][]byte
	for k := 0; k < keys; k++ {
		prime = append(prime, [][]byte{[]byte("SET"), key(k), value(k)})
	}
	cmds := make([][][][]byte, keys)
	want := make([][][]byte, keys)
	for b := range cmds {
		for i := 0; i < depth; i++ {
			k := (b*depth + i) % keys
			if i == 2 || i == 5 {
				cmds[b] = append(cmds[b], [][]byte{[]byte("SET"), key(k), value(k)})
				want[b] = append(want[b], []byte("+OK\r\n"))
				continue
			}
			cmds[b] = append(cmds[b], [][]byte{[]byte("GET"), key(k)})
			want[b] = append(want[b], appendBulk(nil, value(k)))
		}
	}

	for _, im := range images {
		t.Run(im.name, func(t *testing.T) {
			var mallocs uint64
			world(t, im.cfg, func(th *sched.Thread, c *Client) {
				for b := 0; b < keys; b += depth {
					if _, err := c.DoPipelined(th, prime[b:b+depth]); err != nil {
						t.Error(err)
						return
					}
				}
				run := func(n int) bool {
					for b := 0; b < n; b++ {
						replies, err := c.DoPipelined(th, cmds[b%keys])
						if err != nil {
							t.Error(err)
							return false
						}
						for i, r := range replies {
							if !bytes.Equal(r, want[b%keys][i]) {
								t.Errorf("batch %d reply %d = %q, want %q", b, i, r, want[b%keys][i])
								return false
							}
						}
					}
					return true
				}
				if !run(warmup) {
					return
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				ok := run(batches)
				runtime.ReadMemStats(&after)
				if ok {
					mallocs = after.Mallocs - before.Mallocs
				}
			})
			perCmd := float64(mallocs) / float64(batches*depth)
			t.Logf("%d heap objects over %d commands: %.3f per command", mallocs, batches*depth, perCmd)
			if perCmd >= limit {
				t.Errorf("%.3f heap objects per warm pipelined command, want < %.2f", perCmd, limit)
			}
		})
	}
}

// decimalAgrees reports whether parseInt reads s, framed as a RESP
// length line, exactly as strconv.ParseInt(s, 10, 64) does: the same
// value, or an error wrapping the same strconv error.
func decimalAgrees(s string) error {
	got, next, err := parseInt([]byte(s+"\r\n"), 0)
	want, werr := strconv.ParseInt(s, 10, 64)
	switch {
	case werr != nil:
		if err == nil || err.Error() != "redis: bad integer: "+werr.Error() {
			return fmt.Errorf("parseInt(%q) = %d, %v; strconv fails with %v", s, got, err, werr)
		}
	case err != nil || got != want || next != len(s)+2:
		return fmt.Errorf("parseInt(%q) = %d, %d, %v; strconv reads %d", s, got, next, err, want)
	}
	return nil
}

// TestParseIntMatchesStrconv pins the in-place integer parse to
// strconv.ParseInt: every input strconv accepts reads the same value,
// and every input it rejects fails with strconv's own error.
func TestParseIntMatchesStrconv(t *testing.T) {
	cases := []string{
		"0", "-0", "007", "+5", "-", "", " 1", "1 ", "1_0", "0x10", "--1", "-+1", "1-",
		"123456789012345678",   // 18 digits: the in-place path
		"-123456789012345678",  // and negated
		"1234567890123456789",  // 19 digits: strconv's path
		"12345678901234567890", // 20 digits: out of range
		"999999999999999999",
		"9223372036854775807",
		"-9223372036854775808",
		"9223372036854775808",
		"-9223372036854775809",
		"000000000000000000000001",
	}
	for _, s := range cases {
		if err := decimalAgrees(s); err != nil {
			t.Error(err)
		}
	}
	ints := func(v int64) bool { return decimalAgrees(strconv.FormatInt(v, 10)) == nil }
	if err := quick.Check(ints, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Short strings over the bytes an integer line is made of, so most
	// inputs sit near the edges of the syntax.
	const alphabet = "0123456789-+ _x"
	near := func(idx []uint8) bool {
		b := make([]byte, len(idx)%24)
		for i := range b {
			b[i] = alphabet[int(idx[i])%len(alphabet)]
		}
		return decimalAgrees(string(b)) == nil
	}
	if err := quick.Check(near, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestCommandNamesMatchCaseInsensitively pins the allocation-free
// command lookup: any case spelling of a served command reaches it
// (here its arity check), and any other name, however long, is echoed
// upper-cased in the error.
func TestCommandNamesMatchCaseInsensitively(t *testing.T) {
	world(t, build.Config{}, func(th *sched.Thread, c *Client) {
		for _, tc := range []struct{ cmd, want string }{
			{"get", "-ERR wrong number of arguments for 'GET' command\r\n"},
			{"GeT", "-ERR wrong number of arguments for 'GET' command\r\n"},
			{"sEt", "-ERR wrong number of arguments for 'SET' command\r\n"},
			{"ping", "-ERR unknown command 'PING'\r\n"},
			{"flushall", "-ERR unknown command 'FLUSHALL'\r\n"},
			{"bogus", "-ERR unknown command 'BOGUS'\r\n"},
			{"gets", "-ERR unknown command 'GETS'\r\n"},
			{"ge", "-ERR unknown command 'GE'\r\n"},
			{"", "-ERR unknown command ''\r\n"},
		} {
			reply, err := c.Do(th, []byte(tc.cmd))
			if err != nil || string(reply) != tc.want {
				t.Errorf("%q = %q, %v; want %q", tc.cmd, reply, err, tc.want)
			}
		}
	})
}

// TestRepliesOutliveLaterCalls pins the client's reply contract: Do
// and Get return copies that later calls leave intact, while
// DoPipelined's views are exact on every call of a 100-batch session
// whose replies grow and shrink, so the reused reply buffer regrows
// mid-session.
func TestRepliesOutliveLaterCalls(t *testing.T) {
	const (
		keys    = 12
		batches = 100
		depth   = 8
	)
	world(t, build.Config{}, func(th *sched.Thread, c *Client) {
		if err := c.Set(th, "a", []byte("first")); err != nil {
			t.Error(err)
			return
		}
		kept, err := c.Do(th, []byte("GET"), []byte("a"))
		if err != nil {
			t.Error(err)
			return
		}
		val, ok, err := c.Get(th, "a")
		if err != nil || !ok {
			t.Errorf("GET a = %v, %v", ok, err)
			return
		}

		shadow := make(map[string][]byte)
		for b := 0; b < batches; b++ {
			var cmds [][][]byte
			var want []string
			for i := 0; i < depth; i++ {
				n := b*depth + i
				k := "key:" + strconv.Itoa(n%keys)
				if n%3 == 0 {
					v := bytes.Repeat([]byte{'a' + byte(n%26)}, 1+(n*37)%700)
					shadow[k] = v
					cmds = append(cmds, [][]byte{[]byte("SET"), []byte(k), v})
					want = append(want, "+OK\r\n")
					continue
				}
				cmds = append(cmds, [][]byte{[]byte("GET"), []byte(k)})
				if v, ok := shadow[k]; ok {
					want = append(want, string(appendBulk(nil, v)))
				} else {
					want = append(want, "$-1\r\n")
				}
			}
			replies, err := c.DoPipelined(th, cmds)
			if err != nil {
				t.Errorf("batch %d: %v", b, err)
				return
			}
			if len(replies) != depth {
				t.Errorf("batch %d: %d replies, want %d", b, len(replies), depth)
				return
			}
			for i, r := range replies {
				if string(r) != want[i] {
					t.Errorf("batch %d reply %d = %.40q, want %.40q", b, i, r, want[i])
					return
				}
			}
		}
		if string(kept) != "$5\r\nfirst\r\n" || string(val) != "first" {
			t.Errorf("kept replies changed under later calls: Do %q, Get %q", kept, val)
		}
	})
}
