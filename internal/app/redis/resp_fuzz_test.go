package redis

import (
	"bytes"
	"testing"
)

// FuzzRESP throws arbitrary bytes at the RESP command parser and the
// reply framer, checking the structural invariants the server and
// client rely on: parses never panic, consume within bounds, return
// in-bounds argument views, and canonical re-encodings of parsed
// commands round-trip exactly. The input's first line, read as a RESP
// integer, must also parse exactly as strconv.ParseInt reads it.
func FuzzRESP(f *testing.F) {
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$5\r\nkey:1\r\n"))
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$5\r\nkey:1\r\n$4\r\nabcd\r\n"))
	f.Add([]byte("*1\r\n$4\r\nPING\r\n"))
	f.Add([]byte("+OK\r\n"))
	f.Add([]byte("-ERR unknown command\r\n"))
	f.Add([]byte(":42\r\n"))
	f.Add([]byte("$-1\r\n"))
	f.Add([]byte("$3\r\nfoo\r\n"))
	f.Add([]byte("*2\r\n+a\r\n:1\r\n"))
	f.Add([]byte("*0\r\n"))
	f.Add([]byte("$9223372036854775800\r\nx"))
	f.Add([]byte("*9223372036854775800\r\n"))
	// Integer edges: the in-place parse takes an optional '-' and up to
	// 18 digits, strconv everything else.
	for _, s := range []string{"0", "-0", "007", "+5", "-", "", " 1", "1_0",
		"123456789012345678", "1234567890123456789", "12345678901234567890",
		"9223372036854775807", "-9223372036854775808", "9223372036854775808"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		line, _, _ := bytes.Cut(data, []byte("\r"))
		if err := decimalAgrees(string(line)); err != nil {
			t.Fatal(err)
		}
		args, consumed, err := parseCommand(data)
		if err == nil {
			if consumed <= 0 || consumed > len(data) {
				t.Fatalf("parseCommand consumed %d of %d bytes", consumed, len(data))
			}
			for i, a := range args {
				if len(a) > maxBulk {
					t.Fatalf("arg %d longer than maxBulk: %d", i, len(a))
				}
			}
			// A canonical re-encoding of the parsed command must parse
			// back to the identical argument vector, consuming exactly
			// the encoded bytes.
			enc := encodeCommand(nil, args...)
			args2, consumed2, err2 := parseCommand(enc)
			if err2 != nil {
				t.Fatalf("re-encoded command failed to parse: %v", err2)
			}
			if consumed2 != len(enc) {
				t.Fatalf("re-encoded command: consumed %d of %d", consumed2, len(enc))
			}
			if len(args2) != len(args) {
				t.Fatalf("round-trip arg count %d != %d", len(args2), len(args))
			}
			for i := range args {
				if !bytes.Equal(args[i], args2[i]) {
					t.Fatalf("round-trip arg %d mismatch", i)
				}
			}
		}
		if n, err := replyLen(data); err == nil {
			if n <= 0 || n > len(data) {
				t.Fatalf("replyLen = %d for %d input bytes", n, len(data))
			}
		}
	})
}
