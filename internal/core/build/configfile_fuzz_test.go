package build

import "testing"

// FuzzParseConfig checks the configuration-file surface on arbitrary
// input: parsing never panics, and every accepted config reaches the
// FormatConfig fixpoint — format(parse(format(parse(src)))) is
// byte-identical to format(parse(src)), which is the documented
// round-trip guarantee.
func FuzzParseConfig(f *testing.F) {
	f.Add("backend mpk-shared\ncompartment nw netstack\ncompartment core sched alloc libc app rest\n")
	f.Add("name img\nbackend vm-rpc\nalloc per-compartment\nsched verified\nseal runtime\n" +
		"platform xen\ndatapath copy\nsocket-mode tcpip-thread\nrecv-buf 16384\n" +
		"sh libc asan,cfi\ncompartment lc libc\ncompartment core sched alloc netstack app rest\n" +
		"onfault lc restart\n")
	f.Add("backend cheri\nonfault all degrade\n# comment\n\n")
	f.Add("backend funccall\nsh app full\nsh app none\n")
	f.Add("onfault nowhere abort\nbackend mpk-switched\n")
	f.Add("backend mpk-switched\ncompartment nw netstack\ncompartment core sched alloc libc app rest\n" +
		"overload nw\noverload nw\nbreaker nw 4 256 40000\n")
	f.Add("overload nw 8 shed\noverload nw 0 deadline\noverload\nbreaker nw 999 1 18446744073709551615\n")
	f.Add("backend vm-rpc\nalloc per-compartment\ncompartment nw netstack\ncompartment core sched alloc libc app rest\n" +
		"batch nw 16\nbatch core 4\nbatch nw 1\n")
	f.Add("batch nw 0\nbatch nw -7\nbatch nw lots\nbatch nw\n")
	f.Add("backend mpk-shared\nsmp 4\ncompartment nw netstack\ncompartment core sched alloc libc app rest\noverload nw\n")
	f.Add("smp 1\nsmp 0\nsmp -2\nsmp lots\nsmp\n")
	f.Add("smp 2\naffinity queue1 0\n")                                                            // a removed directive
	f.Add("backend vm-rpc\ncompartment nw netstack\ncompartment core sched alloc libc app rest\n") // one allocator across VMs
	f.Add("backend vm-rpc\nalloc per-library\nonfault all restart\n")
	f.Add("overload all\nbackend cheri\n")
	f.Add("overload nw nw\noverload ghost\n")
	f.Fuzz(func(t *testing.T, src string) {
		cfg, err := ParseConfig(src)
		if err != nil {
			return
		}
		once := FormatConfig(cfg)
		cfg2, err := ParseConfig(once)
		if err != nil {
			t.Fatalf("formatted config failed to reparse: %v\n%s", err, once)
		}
		twice := FormatConfig(cfg2)
		if once != twice {
			t.Fatalf("format not a fixpoint:\n--- first ---\n%s--- second ---\n%s", once, twice)
		}
	})
}
