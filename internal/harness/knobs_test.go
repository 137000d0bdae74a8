package harness

import (
	"reflect"
	"strings"
	"testing"

	"flexos/internal/core/build"
	"flexos/internal/net"
)

// unsetKnobs are the config fields no experiment sets, each with the
// reason it stays.
var unsetKnobs = map[string]string{
	"build.Config.Seal": "the paper's PKRU-integrity policies; only the ungated " +
		"BenchmarkAblationSealPolicy sets one, and a measured security axis " +
		"(ROADMAP item 4) is where an experiment would",
	"net.Config.KeepaliveTicks": "the only way a receive-only socket learns that a " +
		"permanently partitioned peer is gone (TestChaosnetRestartRecoversNetDeath, " +
		"TestChaosnetBudgetDrainFreesOnNetDeath); it cannot be on by default, " +
		"because an armed timer on every socket moves the lossless numbers " +
		"(a 20,000-tick default takes fig3's KVM baseline at 64 B from 2389.2 to 2374.4 Mb/s)",
}

// experimentConfigs are the configs the experiments boot: every
// experiment's images, the blast-radius scenarios, the iperf overload
// images in the modes the sweep runs and the breaker leg.
func experimentConfigs(t *testing.T) []build.Config {
	t.Helper()
	var cfgs []build.Config
	for _, e := range Experiments {
		if e.Images == nil {
			continue
		}
		imgs, err := e.Images(Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, img := range imgs {
			cfgs = append(cfgs, img.Cfg)
		}
	}
	for _, sc := range blastScenarios() {
		cfgs = append(cfgs, blastConfig(sc))
	}
	for _, img := range overloadBackends {
		for _, mode := range overloadModes(img) {
			cfgs = append(cfgs, iperfOverloadConfig(img, mode == "shed"))
		}
	}
	return append(cfgs, breakerDemoConfig())
}

// builderKnob reports whether the builder wires net.Config field i
// and, if it does, the Config knob it derives the field from ("" for
// one every machine gets). It asks normalize, through the error
// NewWorld returns for a config that sets the field itself, so the
// mapping lives only in normalize's table.
func builderKnob(t *testing.T, i int) (knob string, wired bool) {
	t.Helper()
	var cfg build.Config
	name := reflect.TypeOf(cfg.Net).Field(i).Name
	f := reflect.ValueOf(&cfg.Net).Elem().Field(i)
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(1)
	case reflect.Pointer:
		f.Set(reflect.New(f.Type().Elem()))
	default:
		t.Fatalf("net.Config.%s: no non-zero %s to probe with", name, f.Kind())
	}
	_, err := build.NewWorld(cfg)
	if err == nil {
		return "", false
	}
	if !strings.Contains(err.Error(), "Net."+name+" is set by the builder") {
		t.Fatalf("probing net.Config.%s: %v", name, err)
	}
	_, knob, _ = strings.Cut(err.Error(), "; use Config.")
	return knob, true
}

// TestEveryKnobIsSetByAnExperiment is the census of the config
// surface: every top-level field of build.Config and net.Config is
// non-zero in at least one config the experiments boot, or is on
// unsetKnobs. A net field the builder wires counts when the Config
// knob normalize names for it is set. A new knob arrives with the
// experiment that sets it.
func TestEveryKnobIsSetByAnExperiment(t *testing.T) {
	set := map[string]bool{}
	mark := func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			if !v.Field(i).IsZero() {
				set[prefix+v.Type().Field(i).Name] = true
			}
		}
	}
	for _, cfg := range experimentConfigs(t) {
		mark("build.Config.", reflect.ValueOf(cfg))
		mark("net.Config.", reflect.ValueOf(cfg.Net))
	}
	bt, nt := reflect.TypeOf(build.Config{}), reflect.TypeOf(net.Config{})
	for i := 0; i < nt.NumField(); i++ {
		knob, wired := builderKnob(t, i)
		if !wired {
			continue
		}
		if _, ok := bt.FieldByName(knob); knob != "" && !ok {
			t.Fatalf("normalize names Config.%s for net.Config.%s, which has no such field", knob, nt.Field(i).Name)
		}
		if knob == "" || set["build.Config."+knob] {
			set["net.Config."+nt.Field(i).Name] = true
		}
	}
	fields := map[string]bool{}
	for _, typ := range []reflect.Type{bt, nt} {
		for i := 0; i < typ.NumField(); i++ {
			name := typ.String() + "." + typ.Field(i).Name
			fields[name] = true
			_, allowed := unsetKnobs[name]
			switch {
			case !set[name] && !allowed:
				t.Errorf("no experiment sets %s: delete it, or add the experiment that needs it", name)
			case set[name] && allowed:
				t.Errorf("an experiment sets %s now: drop it from unsetKnobs", name)
			}
		}
	}
	for name := range unsetKnobs {
		if !fields[name] {
			t.Errorf("unsetKnobs lists %s, which is no field", name)
		}
	}
}
