package redis

import (
	"fmt"
	"strconv"

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
	env *rt.Env
	lc  *libc.LibC
	m   map[string]*valueRef
}

// NewStore builds an empty dictionary for the app environment.
func NewStore(env *rt.Env, lc *libc.LibC) *Store {
	return &Store{env: env, lc: lc, m: make(map[string]*valueRef)}
}

// put points key at the n-byte value at addr, freeing the value it
// replaces. On a failed free the key keeps its old value.
func (s *Store) put(key []byte, addr mem.Addr, n int) error {
	if old := s.m[string(key)]; old != nil {
		if err := s.env.Free(old.addr); err != nil {
			return err
		}
		old.addr, old.n = addr, n
		return nil
	}
	s.m[string(key)] = &valueRef{addr: addr, n: n}
	return nil
}

// chargeOp accounts one dict operation on a key.
func (s *Store) chargeOp(key []byte) {
	s.env.Charge(clock.CostDictOpFixed + clock.RESPParseCycles(len(key)))
	s.env.Hard.OnFrame()
	s.env.Hard.OnTouch(len(key))
}

// Len reports the number of keys.
func (s *Store) Len() int { return len(s.m) }

// Set stores n bytes from the arena at src under key, replacing any
// previous value.
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
	return s.put(key, buf, n)
}

// setRaw stores a Go byte slice (used by INCR and tests).
func (s *Store) setRaw(key []byte, val []byte) error {
	s.chargeOp(key)
	buf, err := s.env.Malloc(max(len(val), 1))
	if err != nil {
		return err
	}
	dst, err := s.env.Bytes(buf, len(val))
	if err != nil {
		return err
	}
	s.env.Charge(clock.CopyCycles(len(val)))
	copy(dst, val)
	return s.put(key, buf, len(val))
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

// Del removes keys, returning how many existed.
func (s *Store) Del(keys ...[]byte) (int, error) {
	removed := 0
	for _, key := range keys {
		s.chargeOp(key)
		if v := s.m[string(key)]; v != nil {
			if err := s.env.Free(v.addr); err != nil {
				return removed, err
			}
			delete(s.m, string(key))
			removed++
		}
	}
	return removed, nil
}

// Exists reports whether key is present.
func (s *Store) Exists(key []byte) bool {
	s.chargeOp(key)
	_, ok := s.m[string(key)]
	return ok
}

// IncrBy adds delta to the integer value at key (0 if absent).
func (s *Store) IncrBy(key []byte, delta int64) (int64, error) {
	s.chargeOp(key)
	var cur int64
	if v := s.m[string(key)]; v != nil {
		b, err := s.env.Bytes(v.addr, v.n)
		if err != nil {
			return 0, err
		}
		cur, err = strconv.ParseInt(string(b), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("redis: value is not an integer")
		}
	}
	cur += delta
	if err := s.setRaw(key, []byte(strconv.FormatInt(cur, 10))); err != nil {
		return 0, err
	}
	return cur, nil
}

// Append appends n bytes from src to key's value, returning the new
// length.
func (s *Store) Append(key []byte, src mem.Addr, n int) (int, error) {
	s.chargeOp(key)
	old := s.m[string(key)]
	ok := old != nil
	newLen := n
	if ok {
		newLen += old.n
	}
	buf, err := s.env.Malloc(max(newLen, 1))
	if err != nil {
		return 0, err
	}
	if ok && old.n > 0 {
		if err := s.memcpy(buf, old.addr, old.n); err != nil {
			return 0, err
		}
	}
	off := 0
	if ok {
		off = old.n
	}
	if n > 0 {
		if err := s.memcpy(buf+mem.Addr(off), src, n); err != nil {
			return 0, err
		}
	}
	if err := s.put(key, buf, newLen); err != nil {
		return 0, err
	}
	return newLen, nil
}

// Strlen reports the value length (0 if absent).
func (s *Store) Strlen(key []byte) int {
	s.chargeOp(key)
	if v := s.m[string(key)]; v != nil {
		return v.n
	}
	return 0
}

// FlushAll drops every key.
func (s *Store) FlushAll() error {
	for k, v := range s.m {
		if err := s.env.Free(v.addr); err != nil {
			return err
		}
		delete(s.m, k)
	}
	return nil
}

// memcpy routes the bulk copy through the app -> libc gate.
func (s *Store) memcpy(dst, src mem.Addr, n int) error {
	return s.env.CallFn("libc", "memcpy", 3, func() error {
		return s.lc.Memcpy(dst, src, n)
	})
}
