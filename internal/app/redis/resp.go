// Package redis implements the Redis-style key-value workload of the
// paper's Fig. 4 and Fig. 5: a RESP protocol server backed by an
// in-arena string dictionary, and a benchmarking client issuing
// SET/GET with configurable payload sizes.
//
// Protocol scaffolding (parsing, reply framing) is application code;
// bulk value movement goes through LibC's memcpy via call gates, so
// the hardening and isolation costs land exactly where the paper
// attributes them.
package redis

import (
	"errors"
	"fmt"
	"strconv"
)

// errIncomplete signals that more bytes are needed to finish parsing.
var errIncomplete = errors.New("redis: incomplete input")

// maxArgs bounds a command's argument count (sanity against garbage).
const maxArgs = 64

// maxBulk bounds one bulk string (1 MiB, like a conservative
// proto-max-bulk-len).
const maxBulk = 1 << 20

// parseCommandSpans parses one RESP array-of-bulk-strings command from
// b, appending each argument as an (offset, length) span into b to
// dst[:0] and returning the spans plus the bytes consumed, or
// errIncomplete when the buffer does not yet hold a full command.
// Spans (rather than views) let the server turn an argument back into
// its arena address. A caller that passes the previous call's spans
// back as dst parses without allocating once the slice has grown to
// its largest command.
func parseCommandSpans(dst [][2]int, b []byte) ([][2]int, int, error) {
	spans := dst[:0]
	if len(b) == 0 {
		return spans, 0, errIncomplete
	}
	if b[0] != '*' {
		return spans, 0, fmt.Errorf("redis: expected '*', got %q", b[0])
	}
	n, pos, err := parseInt(b, 1)
	if err != nil {
		return spans, 0, err
	}
	if n <= 0 || n > maxArgs {
		return spans, 0, fmt.Errorf("redis: bad argument count %d", n)
	}
	for i := int64(0); i < n; i++ {
		if pos >= len(b) {
			return spans, 0, errIncomplete
		}
		if b[pos] != '$' {
			return spans, 0, fmt.Errorf("redis: expected '$', got %q", b[pos])
		}
		sz, next, err := parseInt(b, pos+1)
		if err != nil {
			return spans, 0, err
		}
		if sz < 0 || sz > maxBulk {
			return spans, 0, fmt.Errorf("redis: bad bulk length %d", sz)
		}
		end := next + int(sz)
		if end+2 > len(b) {
			return spans, 0, errIncomplete
		}
		if b[end] != '\r' || b[end+1] != '\n' {
			return spans, 0, fmt.Errorf("redis: bulk string not CRLF terminated")
		}
		spans = append(spans, [2]int{next, int(sz)})
		pos = end + 2
	}
	return spans, pos, nil
}

// parseCommand is the view-returning variant of parseCommandSpans.
func parseCommand(b []byte) ([][]byte, int, error) {
	spans, consumed, err := parseCommandSpans(nil, b)
	if err != nil {
		return nil, 0, err
	}
	args := make([][]byte, len(spans))
	for i, s := range spans {
		args[i] = b[s[0] : s[0]+s[1]]
	}
	return args, consumed, nil
}

// parseInt reads a signed decimal terminated by CRLF starting at pos.
// It returns the value and the position after the CRLF.
func parseInt(b []byte, pos int) (int64, int, error) {
	i := pos
	for i < len(b) && b[i] != '\r' {
		i++
	}
	if i+1 >= len(b) {
		return 0, 0, errIncomplete
	}
	if b[i+1] != '\n' {
		return 0, 0, fmt.Errorf("redis: bare CR in length")
	}
	v, err := parseDecimal(b[pos:i])
	if err != nil {
		return 0, 0, fmt.Errorf("redis: bad integer: %w", err)
	}
	return v, i + 2, nil
}

// maxFastDigits is the longest digit string parseDecimal converts in
// place: 18 decimal digits always fit an int64.
const maxFastDigits = 18

// parseDecimal is strconv.ParseInt(string(b), 10, 64) without the
// string: an optional '-' and 1 to 18 digits convert in place, and
// anything else (a '+', 19 or more digits, a stray byte) takes
// strconv's path, so the accepted inputs, the values and the errors
// are strconv's.
func parseDecimal(b []byte) (int64, error) {
	digits := b
	if len(digits) > 0 && digits[0] == '-' {
		digits = digits[1:]
	}
	if len(digits) == 0 || len(digits) > maxFastDigits {
		return strconv.ParseInt(string(b), 10, 64)
	}
	var v int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return strconv.ParseInt(string(b), 10, 64)
		}
		v = v*10 + int64(c-'0')
	}
	if len(digits) < len(b) {
		v = -v
	}
	return v, nil
}

// replyLen reports the length of one complete RESP reply at the start
// of b, or errIncomplete.
func replyLen(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, errIncomplete
	}
	switch b[0] {
	case '+', '-', ':':
		for i := 1; i+1 < len(b); i++ {
			if b[i] == '\r' && b[i+1] == '\n' {
				return i + 2, nil
			}
		}
		return 0, errIncomplete
	case '$':
		sz, pos, err := parseInt(b, 1)
		if err != nil {
			return 0, err
		}
		if sz < 0 { // null bulk
			return pos, nil
		}
		if sz > maxBulk {
			return 0, fmt.Errorf("redis: bad bulk length %d", sz)
		}
		if pos+int(sz)+2 > len(b) {
			return 0, errIncomplete
		}
		return pos + int(sz) + 2, nil
	case '*':
		n, pos, err := parseInt(b, 1)
		if err != nil {
			return 0, err
		}
		if n > maxArgs {
			return 0, fmt.Errorf("redis: bad argument count %d", n)
		}
		total := pos
		for i := int64(0); i < n; i++ {
			l, err := replyLen(b[total:])
			if err != nil {
				return 0, err
			}
			total += l
		}
		return total, nil
	default:
		return 0, fmt.Errorf("redis: bad reply type %q", b[0])
	}
}

// Fixed replies and the bulk-string terminator.
var (
	replyOK   = []byte("+OK\r\n")
	replyNull = []byte("$-1\r\n")
	replyBusy = []byte("-BUSY overload shed\r\n")
	crlf      = []byte("\r\n")
)

// Reply builders append RESP into dst and return the extended slice.

func appendError(dst []byte, s string) []byte {
	dst = append(dst, '-')
	dst = append(dst, s...)
	return append(dst, '\r', '\n')
}

// appendBulkHeader writes "$<n>\r\n"; the caller appends payload + CRLF.
func appendBulkHeader(dst []byte, n int) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, '\r', '\n')
}

// appendBulk writes a complete bulk string from a Go slice.
func appendBulk(dst, payload []byte) []byte {
	dst = appendBulkHeader(dst, len(payload))
	dst = append(dst, payload...)
	return append(dst, '\r', '\n')
}

// encodeCommand renders a command as RESP into dst.
func encodeCommand(dst []byte, args ...[]byte) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(len(args)), 10)
	dst = append(dst, '\r', '\n')
	for _, a := range args {
		dst = appendBulk(dst, a)
	}
	return dst
}
