package redis

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"flexos/internal/core/build"
	"flexos/internal/core/gate"
	"flexos/internal/sched"
)

// --- RESP unit tests -------------------------------------------------

func TestParseCommandSimple(t *testing.T) {
	in := []byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n")
	args, consumed, err := parseCommand(in)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(in) {
		t.Fatalf("consumed %d, want %d", consumed, len(in))
	}
	if len(args) != 3 || string(args[0]) != "SET" || string(args[2]) != "hello" {
		t.Fatalf("args = %q", args)
	}
}

func TestParseCommandIncremental(t *testing.T) {
	full := []byte("*2\r\n$4\r\nECHO\r\n$3\r\nabc\r\n")
	for i := 0; i < len(full); i++ {
		if _, _, err := parseCommand(full[:i]); !errors.Is(err, errIncomplete) {
			t.Fatalf("prefix %d: err = %v, want incomplete", i, err)
		}
	}
	if _, _, err := parseCommand(full); err != nil {
		t.Fatal(err)
	}
}

func TestParseCommandRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		[]byte("PING\r\n"),             // inline commands unsupported
		[]byte("*0\r\n"),               // zero args
		[]byte("*-1\r\n"),              // negative count
		[]byte("*1\r\nX3\r\nabc\r\n"),  // not a bulk
		[]byte("*1\r\n$-5\r\n"),        // negative bulk
		[]byte("*1\r\n$3\r\nabcX\r\n"), // missing CRLF
		[]byte("*1\r\n$x\r\n"),         // non-numeric
		[]byte("*999999\r\n"),          // absurd arg count
	}
	for _, in := range bad {
		if _, _, err := parseCommand(in); err == nil || errors.Is(err, errIncomplete) {
			t.Errorf("parse(%q) err = %v, want hard error", in, err)
		}
	}
}

func TestEncodeParseRoundTripProperty(t *testing.T) {
	f := func(a, b, c []byte) bool {
		if len(a) == 0 {
			a = []byte("X")
		}
		if len(a) > maxBulk || len(b) > maxBulk || len(c) > maxBulk {
			return true
		}
		enc := encodeCommand(nil, a, b, c)
		args, consumed, err := parseCommand(enc)
		if err != nil || consumed != len(enc) || len(args) != 3 {
			return false
		}
		return bytes.Equal(args[0], a) && bytes.Equal(args[1], b) && bytes.Equal(args[2], c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestReplyLen(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"+OK\r\n", 5},
		{"-ERR boom\r\n", 11},
		{":42\r\n", 5},
		{"$3\r\nabc\r\n", 9},
		{"$-1\r\n", 5},
		{"*2\r\n:1\r\n:2\r\n", 12},
	}
	for _, tc := range cases {
		got, err := replyLen([]byte(tc.in))
		if err != nil || got != tc.want {
			t.Errorf("replyLen(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
	for _, in := range []string{"", "+OK", "$5\r\nab", "*2\r\n:1\r\n"} {
		if _, err := replyLen([]byte(in)); !errors.Is(err, errIncomplete) {
			t.Errorf("replyLen(%q) err = %v, want incomplete", in, err)
		}
	}
	if _, err := replyLen([]byte("?what\r\n")); err == nil {
		t.Error("bad reply type accepted")
	}
}

// --- end-to-end server tests ------------------------------------------

// world spins up a redis server and runs clientBody against it.
func world(t *testing.T, cfg build.Config, clientBody func(th *sched.Thread, c *Client)) (*build.World, *Server) {
	t.Helper()
	w, err := build.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(w.Server.Env("app"), w.Server.LibC, w.Server.Stack, 6379)
	w.Sched.Spawn("redis-server", w.Server.CPU, func(th *sched.Thread) {
		if err := srv.Run(th); err != nil {
			t.Errorf("server: %v", err)
		}
	})
	w.Sched.Spawn("redis-client", w.Client.CPU, func(th *sched.Thread) {
		c := NewClient(w.Client.Env("app"), w.Client.LibC, w.Client.Stack,
			w.Server.Stack.IP(), 6379)
		if err := c.Connect(th); err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		clientBody(th, c)
		if err := c.Close(th); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	if err := w.Sched.Run(); err != nil {
		t.Fatal(err)
	}
	return w, srv
}

func TestSetGetRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte("v"), 500)
	_, srv := world(t, build.Config{}, func(th *sched.Thread, c *Client) {
		if err := c.Set(th, "key:1", payload); err != nil {
			t.Error(err)
			return
		}
		got, ok, err := c.Get(th, "key:1")
		if err != nil || !ok {
			t.Errorf("GET = %v, %v", ok, err)
			return
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("GET returned %d bytes, want %d", len(got), len(payload))
		}
		if _, ok, _ := c.Get(th, "missing"); ok {
			t.Error("missing key found")
		}
	})
	if srv.Commands != 3 {
		t.Fatalf("Commands = %d, want 3", srv.Commands)
	}
	if srv.Store().Len() != 1 {
		t.Fatalf("store len = %d", srv.Store().Len())
	}
}

func TestCommandSuite(t *testing.T) {
	do := func(th *sched.Thread, c *Client, want string, args ...string) {
		t.Helper()
		bs := make([][]byte, len(args))
		for i, a := range args {
			bs[i] = []byte(a)
		}
		reply, err := c.Do(th, bs...)
		if err != nil {
			t.Errorf("%v: %v", args, err)
			return
		}
		if string(reply) != want {
			t.Errorf("%v = %q, want %q", args, reply, want)
		}
	}
	world(t, build.Config{}, func(th *sched.Thread, c *Client) {
		do(th, c, "+OK\r\n", "set", "k", "v1") // case-insensitive
		do(th, c, "$2\r\nv1\r\n", "GET", "k")
		do(th, c, "+OK\r\n", "SET", "k", "v22")
		do(th, c, "$3\r\nv22\r\n", "get", "k")
		do(th, c, "$-1\r\n", "GET", "nope")
		// Errors.
		do(th, c, "-ERR unknown command 'BOGUS'\r\n", "BOGUS")
		do(th, c, "-ERR unknown command 'PING'\r\n", "PING")
		do(th, c, "-ERR unknown command 'FLUSHALL'\r\n", "FLUSHALL")
		do(th, c, "-ERR wrong number of arguments for 'GET' command\r\n", "GET")
		do(th, c, "-ERR wrong number of arguments for 'GET' command\r\n", "GET", "k", "x")
		do(th, c, "-ERR wrong number of arguments for 'SET' command\r\n", "SET", "k")
		do(th, c, "$3\r\nv22\r\n", "GET", "k")
	})
}

func TestManySmallRequests(t *testing.T) {
	// Exercise buffering/compaction across many sequential commands.
	const n = 200
	_, srv := world(t, build.Config{}, func(th *sched.Thread, c *Client) {
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("key:%d", i%10)
			if err := c.Set(th, key, []byte(fmt.Sprintf("value-%d", i))); err != nil {
				t.Error(err)
				return
			}
			got, ok, err := c.Get(th, key)
			if err != nil || !ok {
				t.Errorf("get %d: %v %v", i, ok, err)
				return
			}
			if string(got) != fmt.Sprintf("value-%d", i) {
				t.Errorf("get %d = %q", i, got)
			}
		}
	})
	if srv.Commands != 2*n {
		t.Fatalf("Commands = %d, want %d", srv.Commands, 2*n)
	}
}

func TestLargeValue(t *testing.T) {
	payload := bytes.Repeat([]byte("abcdefgh"), 1000) // 8 KB
	world(t, build.Config{}, func(th *sched.Thread, c *Client) {
		if err := c.Set(th, "big", payload); err != nil {
			t.Error(err)
			return
		}
		got, ok, err := c.Get(th, "big")
		if err != nil || !ok || !bytes.Equal(got, payload) {
			t.Errorf("big value mismatch: %d bytes, ok=%v, err=%v", len(got), ok, err)
		}
	})
}

func TestRedisOverMPKIsolation(t *testing.T) {
	cfg := build.Config{
		Compartments: build.NWSchedRest(),
		Backend:      gate.MPKShared,
		Alloc:        build.AllocPerCompartment,
	}
	w, srv := world(t, cfg, func(th *sched.Thread, c *Client) {
		if err := c.Set(th, "k", []byte("v")); err != nil {
			t.Error(err)
		}
		if _, _, err := c.Get(th, "k"); err != nil {
			t.Error(err)
		}
	})
	if srv.Commands != 2 {
		t.Fatalf("Commands = %d", srv.Commands)
	}
	if w.Server.Registry.TotalCrossings() == 0 {
		t.Fatal("no crossings under MPK isolation")
	}
}
