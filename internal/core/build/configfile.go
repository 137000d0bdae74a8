package build

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"flexos/internal/core/gate"
	"flexos/internal/fault"
	"flexos/internal/mpk"
	"flexos/internal/net"
	"flexos/internal/rt"
	"flexos/internal/sh"
)

// The configuration-file surface: a line-oriented, Kconfig-flavoured
// format mirroring the paper's "a few lines of configuration" claim.
// Blank lines and '#' comments are ignored. Directives:
//
//	name <label>
//	backend <funccall|mpk-shared|mpk-switched|vm-rpc|cheri|...aliases>
//	alloc <global|per-compartment|per-library>
//	sched <c|verified>
//	seal <static|runtime|pagetable>
//	platform <kvm|xen>
//	datapath <shared|copy>
//	socket-mode <direct|tcpip-thread>
//	recv-buf <bytes>
//	sh <library> <none|full|asan[,cfi][,ssp][,ubsan]>
//	compartment <name> <library> [library...]
//	onfault <compartment> <abort|restart|degrade>
//	overload <compartment>
//	breaker <compartment> <threshold> <window> <cooldown-cycles>
//	batch <compartment> <depth>
//	smp <n>
//	link <drop> <reorder> <corrupt> [seed]

// ParseConfig parses configuration-file source into a Config.
func ParseConfig(src string) (Config, error) {
	var cfg Config
	for lineno, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if err := applyDirective(&cfg, fields); err != nil {
			return Config{}, fmt.Errorf("build: config line %d: %w", lineno+1, err)
		}
	}
	if _, err := normalize(&cfg); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

func applyDirective(cfg *Config, fields []string) error {
	dir, args := fields[0], fields[1:]
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s takes %d argument(s), got %d", dir, n, len(args))
		}
		return nil
	}
	switch dir {
	case "name":
		if err := need(1); err != nil {
			return err
		}
		cfg.Name = args[0]
	case "backend":
		if err := need(1); err != nil {
			return err
		}
		b, err := gate.ParseBackend(args[0])
		if err != nil {
			return err
		}
		cfg.Backend = b
	case "alloc":
		if err := need(1); err != nil {
			return err
		}
		p, err := ParseAllocPolicy(args[0])
		if err != nil {
			return err
		}
		cfg.Alloc = p
	case "sched":
		if err := need(1); err != nil {
			return err
		}
		k, err := ParseSchedKind(args[0])
		if err != nil {
			return err
		}
		cfg.Sched = k
	case "seal":
		if err := need(1); err != nil {
			return err
		}
		switch args[0] {
		case "static":
			cfg.Seal = mpk.SealStatic
		case "runtime":
			cfg.Seal = mpk.SealRuntime
		case "pagetable":
			cfg.Seal = mpk.SealPageTable
		default:
			return fmt.Errorf("unknown seal policy %q", args[0])
		}
	case "platform":
		if err := need(1); err != nil {
			return err
		}
		switch args[0] {
		case "kvm":
			cfg.Platform = net.KVM
		case "xen":
			cfg.Platform = net.Xen
		default:
			return fmt.Errorf("unknown platform %q", args[0])
		}
	case "datapath":
		if err := need(1); err != nil {
			return err
		}
		dp, err := net.ParseDataPath(args[0])
		if err != nil {
			return err
		}
		cfg.DataPath = dp
	case "socket-mode":
		if err := need(1); err != nil {
			return err
		}
		switch args[0] {
		case "direct":
			cfg.Net.SocketMode = net.DirectMode
		case "tcpip-thread":
			cfg.Net.SocketMode = net.TCPIPThreadMode
		default:
			return fmt.Errorf("unknown socket mode %q", args[0])
		}
	case "recv-buf":
		if err := need(1); err != nil {
			return err
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n <= 0 {
			return fmt.Errorf("recv-buf wants a positive byte count, got %q", args[0])
		}
		cfg.Net.RecvBuf = n
	case "sh":
		if err := need(2); err != nil {
			return err
		}
		p, err := parseProfile(args[1])
		if err != nil {
			return err
		}
		if cfg.SH == nil {
			cfg.SH = make(map[string]sh.Profile)
		}
		if p.Enabled() {
			cfg.SH[args[0]] = p
		} else {
			delete(cfg.SH, args[0])
		}
	case "compartment":
		if len(args) < 2 {
			return fmt.Errorf("compartment wants a name and at least one library")
		}
		cfg.Compartments = append(cfg.Compartments, Compartment{
			Name:      args[0],
			Libraries: append([]string(nil), args[1:]...),
		})
	case "onfault":
		if err := need(2); err != nil {
			return err
		}
		p, err := fault.ParsePolicy(args[1])
		if err != nil {
			return err
		}
		if cfg.OnFault == nil {
			cfg.OnFault = make(map[string]fault.Policy)
		}
		if p == fault.PolicyAbort {
			delete(cfg.OnFault, args[0]) // abort is the default
		} else {
			cfg.OnFault[args[0]] = p
		}
	case "overload":
		if err := need(1); err != nil {
			return err
		}
		if cfg.Overload == nil {
			cfg.Overload = make(map[string]bool)
		}
		cfg.Overload[args[0]] = true
	case "breaker":
		if err := need(4); err != nil {
			return err
		}
		threshold, err := strconv.Atoi(args[1])
		if err != nil || threshold < 0 {
			return fmt.Errorf("breaker wants a non-negative threshold, got %q", args[1])
		}
		window, err := strconv.Atoi(args[2])
		if err != nil || window < 0 {
			return fmt.Errorf("breaker wants a non-negative window, got %q", args[2])
		}
		cooldown, err := strconv.ParseUint(args[3], 10, 64)
		if err != nil {
			return fmt.Errorf("breaker wants a cooldown in cycles, got %q", args[3])
		}
		if cfg.Breaker == nil {
			cfg.Breaker = make(map[string]rt.BreakerSpec)
		}
		if threshold == 0 {
			// Threshold 0 never opens: back to the default, entry dropped.
			delete(cfg.Breaker, args[0])
		} else {
			cfg.Breaker[args[0]] = rt.BreakerSpec{Threshold: threshold, Window: window, Cooldown: cooldown}
		}
	case "batch":
		if err := need(2); err != nil {
			return err
		}
		depth, err := strconv.Atoi(args[1])
		if err != nil || depth < 1 {
			return fmt.Errorf("batch wants a depth >= 1, got %q", args[1])
		}
		if cfg.Batch == nil {
			cfg.Batch = make(map[string]int)
		}
		if depth == 1 {
			// Depth 1 dispatches one call per crossing: back to the
			// default, entry dropped (cf. onfault abort).
			delete(cfg.Batch, args[0])
		} else {
			cfg.Batch[args[0]] = depth
		}
	case "smp":
		if err := need(1); err != nil {
			return err
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 1 {
			return fmt.Errorf("smp wants a vCPU count >= 1, got %q", args[0])
		}
		if n == 1 {
			cfg.Smp = 0 // single-core is the default, entry elided
		} else {
			cfg.Smp = n
		}
	case "link":
		if len(args) != 3 && len(args) != 4 {
			return fmt.Errorf("link takes 3 or 4 arguments (drop reorder corrupt [seed]), got %d", len(args))
		}
		var spec LinkSpec
		for i, dst := range []*float64{&spec.Drop, &spec.Reorder, &spec.Corrupt} {
			v, err := strconv.ParseFloat(args[i], 64)
			if err != nil || v < 0 || v > 1 {
				return fmt.Errorf("link wants fault rates in [0,1], got %q", args[i])
			}
			*dst = v
		}
		if len(args) == 4 {
			seed, err := strconv.ParseUint(args[3], 10, 64)
			if err != nil {
				return fmt.Errorf("link wants an unsigned seed, got %q", args[3])
			}
			spec.Seed = seed
		}
		if !spec.Active() {
			cfg.Link = LinkSpec{} // all-zero rates: back to the lossless default
		} else {
			cfg.Link = spec
		}
	default:
		return fmt.Errorf("unknown directive %q", dir)
	}
	return nil
}

func parseProfile(s string) (sh.Profile, error) {
	switch s {
	case "none":
		return sh.Profile{}, nil
	case "full":
		return sh.Full, nil
	}
	var p sh.Profile
	for _, t := range strings.Split(s, ",") {
		switch t {
		case "asan":
			p.ASAN = true
		case "cfi":
			p.CFI = true
		case "ssp":
			p.StackProtector = true
		case "ubsan":
			p.UBSan = true
		default:
			return sh.Profile{}, fmt.Errorf("unknown hardening technique %q", t)
		}
	}
	return p, nil
}

// FormatConfig renders a Config in the configuration-file format, with
// defaults spelled out; the output round-trips through ParseConfig.
func FormatConfig(cfg Config) string {
	var b strings.Builder
	if cfg.Name != "" {
		fmt.Fprintf(&b, "name %s\n", cfg.Name)
	}
	fmt.Fprintf(&b, "backend %s\n", cfg.Backend)
	fmt.Fprintf(&b, "alloc %s\n", cfg.Alloc)
	fmt.Fprintf(&b, "sched %s\n", cfg.Sched)
	fmt.Fprintf(&b, "seal %s\n", cfg.Seal)
	if cfg.Platform == net.Xen {
		fmt.Fprintf(&b, "platform xen\n")
	} else {
		fmt.Fprintf(&b, "platform kvm\n")
	}
	fmt.Fprintf(&b, "datapath %s\n", cfg.DataPath)
	if cfg.Net.SocketMode == net.TCPIPThreadMode {
		fmt.Fprintf(&b, "socket-mode tcpip-thread\n")
	} else {
		fmt.Fprintf(&b, "socket-mode direct\n")
	}
	if cfg.Net.RecvBuf > 0 {
		fmt.Fprintf(&b, "recv-buf %d\n", cfg.Net.RecvBuf)
	}
	hardened := make([]string, 0, len(cfg.SH))
	for l, p := range cfg.SH {
		if p.Enabled() {
			hardened = append(hardened, l)
		}
	}
	sort.Strings(hardened)
	for _, l := range hardened {
		fmt.Fprintf(&b, "sh %s %s\n", l, profileTokens(cfg.SH[l]))
	}
	comps := cfg.Compartments
	if len(comps) == 0 {
		comps = SingleCompartment()
	}
	for _, c := range comps {
		fmt.Fprintf(&b, "compartment %s %s\n", c.Name, strings.Join(c.Libraries, " "))
	}
	faulted := make([]string, 0, len(cfg.OnFault))
	for comp, p := range cfg.OnFault {
		if p != fault.PolicyAbort {
			faulted = append(faulted, comp)
		}
	}
	sort.Strings(faulted)
	for _, comp := range faulted {
		fmt.Fprintf(&b, "onfault %s %s\n", comp, cfg.OnFault[comp])
	}
	overloaded := make([]string, 0, len(cfg.Overload))
	for comp := range cfg.Overload {
		overloaded = append(overloaded, comp)
	}
	sort.Strings(overloaded)
	for _, comp := range overloaded {
		fmt.Fprintf(&b, "overload %s\n", comp)
	}
	broken := make([]string, 0, len(cfg.Breaker))
	for comp := range cfg.Breaker {
		broken = append(broken, comp)
	}
	sort.Strings(broken)
	for _, comp := range broken {
		spec := cfg.Breaker[comp]
		fmt.Fprintf(&b, "breaker %s %d %d %d\n", comp, spec.Threshold, spec.Window, spec.Cooldown)
	}
	batched := make([]string, 0, len(cfg.Batch))
	for comp := range cfg.Batch {
		batched = append(batched, comp)
	}
	sort.Strings(batched)
	for _, comp := range batched {
		fmt.Fprintf(&b, "batch %s %d\n", comp, cfg.Batch[comp])
	}
	if cfg.Smp > 1 {
		fmt.Fprintf(&b, "smp %d\n", cfg.Smp)
	}
	if cfg.Link.Active() {
		fmt.Fprintf(&b, "link %g %g %g", cfg.Link.Drop, cfg.Link.Reorder, cfg.Link.Corrupt)
		if cfg.Link.Seed != 0 {
			fmt.Fprintf(&b, " %d", cfg.Link.Seed)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func profileTokens(p sh.Profile) string {
	if p == sh.Full {
		return "full"
	}
	var ts []string
	if p.ASAN {
		ts = append(ts, "asan")
	}
	if p.CFI {
		ts = append(ts, "cfi")
	}
	if p.StackProtector {
		ts = append(ts, "ssp")
	}
	if p.UBSan {
		ts = append(ts, "ubsan")
	}
	if len(ts) == 0 {
		return "none"
	}
	return strings.Join(ts, ",")
}
