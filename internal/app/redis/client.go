package redis

import (
	"errors"
	"fmt"

	"flexos/internal/app/retry"
	"flexos/internal/clock"
	"flexos/internal/libc"
	"flexos/internal/mem"
	"flexos/internal/net"
	"flexos/internal/rt"
	"flexos/internal/sched"
)

// Client is a benchmarking RESP client (one outstanding request, like
// redis-benchmark with pipeline=1).
type Client struct {
	env   *rt.Env
	libc  *libc.LibC
	lc    rt.Callee // app -> libc
	stack *net.Stack

	ServerIP   net.IPAddr
	ServerPort uint16

	// Retry bounds the connect loop on lossy links (the zero value is
	// a single attempt, the lossless-baseline behaviour).
	Retry retry.Policy
	// ConnectRetries counts failed connect attempts that were retried.
	ConnectRetries uint64

	conn         *net.Socket
	rx, tx       mem.Addr
	rxBuf, txBuf mem.BufRef
	rxLen        int
	bufSize      int

	// Host scratch reused by every DoPipelined call: the encoded
	// request, the copied replies, each reply's end offset in them and
	// the views returned.
	req     []byte
	replies []byte
	ends    []int
	views   [][]byte
}

// NewClient builds a client for the app environment of the client
// machine.
func NewClient(env *rt.Env, lc *libc.LibC, st *net.Stack, ip net.IPAddr, port uint16) *Client {
	return &Client{env: env, libc: lc, lc: rt.Bind(env, "libc"), stack: st, ServerIP: ip, ServerPort: port, bufSize: defaultBufSize}
}

// Connect opens the connection and allocates buffers, retrying with
// jittered exponential backoff when a Retry policy is set.
func (c *Client) Connect(t *sched.Thread) error {
	err := c.Retry.Do(c.env, func() error {
		err := c.lc.Call("connect", 3, func() error {
			var err error
			c.conn, err = c.libc.Connect(t, c.stack, c.ServerIP, c.ServerPort)
			return err
		})
		if err != nil {
			c.ConnectRetries++
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("redis client: %w", err)
	}
	return c.lc.Call("malloc", 1, func() error {
		if c.rxBuf, err = c.libc.BufAlloc(c.bufSize); err != nil {
			return err
		}
		if c.txBuf, err = c.libc.BufAlloc(c.bufSize); err != nil {
			return err
		}
		c.rx, c.tx = c.rxBuf.Addr, c.txBuf.Addr
		return nil
	})
}

// Close releases the buffers and shuts the connection down.
func (c *Client) Close(t *sched.Thread) error {
	if c.conn == nil {
		return nil
	}
	if c.rx != mem.NilAddr {
		_ = c.lc.Call("free", 1, func() error {
			_ = c.libc.BufFree(c.rxBuf)
			_ = c.libc.BufFree(c.txBuf)
			c.rx, c.tx = mem.NilAddr, mem.NilAddr
			return nil
		})
	}
	return c.lc.Call("close", 1, func() error { return c.libc.Close(t, c.conn) })
}

// Do issues one command and returns a copy of the raw RESP reply,
// which the caller may keep.
func (c *Client) Do(t *sched.Thread, args ...[]byte) ([]byte, error) {
	replies, err := c.DoPipelined(t, [][][]byte{args})
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), replies[0]...), nil
}

// DoPipelined issues all commands back to back and then collects one
// reply per command — redis-benchmark's -P mode. The combined request
// and reply streams must each fit the client buffer. The replies are
// views into a buffer the client reuses: they stay valid until the
// next call on this Client, so a caller that keeps one must copy it.
func (c *Client) DoPipelined(t *sched.Thread, cmds [][][]byte) ([][]byte, error) {
	if c.conn == nil {
		return nil, errors.New("redis client: not connected")
	}
	req := c.req[:0]
	for _, cmd := range cmds {
		req = encodeCommand(req, cmd...)
	}
	c.req = req
	if len(req) > c.bufSize {
		return nil, fmt.Errorf("redis client: request exceeds %d bytes", c.bufSize)
	}
	dst, err := c.env.Bytes(c.tx, len(req))
	if err != nil {
		return nil, err
	}
	c.env.Charge(clock.RESPParseCycles(len(req)))
	c.env.Hard.OnTouch(len(req))
	copy(dst, req)
	if err := c.lc.Call("send", 3, func() error {
		_, err := c.libc.Send(t, c.conn, c.tx, len(req))
		return err
	}); err != nil {
		return nil, fmt.Errorf("redis client send: %w", err)
	}
	replies, ends := c.replies[:0], c.ends[:0]
	for len(ends) < len(cmds) {
		view, err := c.env.Bytes(c.rx, c.rxLen)
		if err != nil {
			return nil, err
		}
		consumed := 0
		for len(ends) < len(cmds) {
			l, perr := replyLen(view[consumed:c.rxLen])
			if errors.Is(perr, errIncomplete) {
				break
			}
			if perr != nil {
				return nil, perr
			}
			replies = append(replies, view[consumed:consumed+l]...)
			ends = append(ends, len(replies))
			consumed += l
		}
		if consumed > 0 {
			if remain := c.rxLen - consumed; remain > 0 {
				copy(view, view[consumed:c.rxLen])
			}
			c.rxLen -= consumed
		}
		if len(ends) == len(cmds) {
			break
		}
		var n int
		err = c.lc.Call("recv", 3, func() error {
			var err error
			n, err = c.libc.Recv(t, c.conn, c.rx+mem.Addr(c.rxLen), c.bufSize-c.rxLen)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("redis client recv: %w", err)
		}
		c.rxLen += n
	}
	// The views are cut only once every reply is copied, so a regrowth
	// of the reply buffer cannot strand an earlier one.
	c.replies, c.ends = replies, ends
	views, start := c.views[:0], 0
	for _, end := range ends {
		views = append(views, replies[start:end:end])
		start = end
	}
	c.views = views
	return views, nil
}

// Set issues SET key value.
func (c *Client) Set(t *sched.Thread, key string, value []byte) error {
	reply, err := c.Do(t, []byte("SET"), []byte(key), value)
	if err != nil {
		return err
	}
	if string(reply) != "+OK\r\n" {
		return fmt.Errorf("redis client: SET reply %q", reply)
	}
	return nil
}

// Get issues GET key; missing keys return (nil, false, nil).
func (c *Client) Get(t *sched.Thread, key string) ([]byte, bool, error) {
	reply, err := c.Do(t, []byte("GET"), []byte(key))
	if err != nil {
		return nil, false, err
	}
	if string(reply) == "$-1\r\n" {
		return nil, false, nil
	}
	if len(reply) == 0 || reply[0] != '$' {
		return nil, false, fmt.Errorf("redis client: GET reply %q", reply)
	}
	sz, pos, err := parseInt(reply, 1)
	if err != nil {
		return nil, false, err
	}
	return reply[pos : pos+int(sz)], true, nil
}
