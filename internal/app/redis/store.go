package redis

import (
	"flexos/internal/clock"
	"flexos/internal/libc"
	"flexos/internal/mem"
	"flexos/internal/rt"
)

// valueRef locates a stored value in the arena.
type valueRef struct {
	addr mem.Addr
	n    int
}

// Store is the in-memory string dictionary. Values live in arena
// allocations owned by the store; all bulk movement goes through
// LibC's memcpy so hardening and allocator policies apply exactly as
// they would to a ported Redis. A key maps to its value's record, which
// a write to an existing key updates in place: only a new key converts
// the key to a string and allocates.
type Store struct {
	env  *rt.Env
	libc *libc.LibC
	lc   rt.Callee // app -> libc
	m    map[string]*valueRef
}

// NewStore builds an empty dictionary for the app environment.
func NewStore(env *rt.Env, lc *libc.LibC) *Store {
	return &Store{env: env, libc: lc, lc: rt.Bind(env, "libc"), m: make(map[string]*valueRef)}
}

// chargeOp accounts one dict operation on a key.
func (s *Store) chargeOp(key []byte) {
	s.env.Charge(clock.CostDictOpFixed + clock.RESPParseCycles(len(key)))
	s.env.Hard.OnFrame()
	s.env.Hard.OnTouch(len(key))
}

// Len reports the number of keys.
func (s *Store) Len() int { return len(s.m) }

// Set stores n bytes from the arena at src under key, freeing the
// value it replaces. On a failed free the key keeps its old value.
func (s *Store) Set(key []byte, src mem.Addr, n int) error {
	s.chargeOp(key)
	buf, err := s.env.Malloc(max(n, 1))
	if err != nil {
		return err
	}
	if n > 0 {
		if err := s.memcpy(buf, src, n); err != nil {
			_ = s.env.Free(buf)
			return err
		}
	}
	if old := s.m[string(key)]; old != nil {
		if err := s.env.Free(old.addr); err != nil {
			return err
		}
		old.addr, old.n = buf, n
		return nil
	}
	s.m[string(key)] = &valueRef{addr: buf, n: n}
	return nil
}

// Get returns the value location for key.
func (s *Store) Get(key []byte) (mem.Addr, int, bool) {
	s.chargeOp(key)
	v := s.m[string(key)]
	if v == nil {
		return mem.NilAddr, 0, false
	}
	return v.addr, v.n, true
}

// memcpy routes the bulk copy through the app -> libc gate.
func (s *Store) memcpy(dst, src mem.Addr, n int) error {
	return s.lc.Call("memcpy", 3, func() error {
		return s.libc.Memcpy(dst, src, n)
	})
}
