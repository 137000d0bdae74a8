package harness

import (
	"testing"

	"flexos/internal/core/build"
	"flexos/internal/core/spec"
)

// TestMetadataDeclaresEveryCall records the call edges of both machines
// of every image the experiments boot and checks each against the
// default image's metadata, which the compartmentalization reasons
// over: the callee's [API] must list the function, and the caller must
// name the call, in its explicit [Call] list or, under a wildcard, in
// its [Analysis] calls (the list the SH transform narrows [Call] to).
func TestMetadataDeclaresEveryCall(t *testing.T) {
	libs := make(map[string]*spec.Library)
	for _, l := range spec.DefaultImage() {
		libs[l.Name] = l
	}
	rec := spec.NewRecorder()
	for _, e := range Experiments {
		if e.Images == nil {
			continue
		}
		imgs, err := e.Images(Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, img := range imgs {
			load := img.Load
			prep := load.Prep
			load.Prep = func(w *build.World) {
				if prep != nil {
					prep(w)
				}
				w.Server.Sink.Record(rec.Observe)
				w.Client.Sink.Record(rec.Observe)
			}
			if _, err := Run(img.Cfg, load); err != nil {
				t.Fatalf("%s %s: %v", e.Name, img.Cfg.Name, err)
			}
		}
	}
	edges := rec.Edges()
	if len(edges) == 0 {
		t.Fatal("the experiments recorded no call edge")
	}
	for _, e := range edges {
		from, to := libs[e.From], libs[e.To]
		if from == nil || to == nil {
			t.Errorf("%s -> %s::%s: a library the metadata does not describe", e.From, e.To, e.Fn)
			continue
		}
		if !to.Spec.ExportsAPI(e.Fn) {
			t.Errorf("%s -> %s::%s: %s's [API] does not list %s", e.From, e.To, e.Fn, e.To, e.Fn)
		}
		call := e.To + "::" + e.Fn
		declared := from.Spec.Calls.Contains(call)
		if from.Spec.Calls.All {
			declared = spec.NewCallSet(from.Analysis.Calls...).Contains(call)
		}
		if !declared {
			t.Errorf("%s -> %s: %s does not declare the call", e.From, call, e.From)
		}
	}
}
