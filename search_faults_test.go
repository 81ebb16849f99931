package kset

import (
	"strings"
	"testing"

	"kset/internal/testutil"
)

// TestSearchFaultsFacadeParity proves Options.Faults behaves on the public
// facade exactly as the substrate promises: the empty string and the
// explicit "crash" spelling drive bit-identical searches (stats and
// verdict), and arming a fault model only strengthens the adversary — a
// crash-only witness stays findable, and its replayed run carries the
// armed model's fault events when the adversary uses them.
func TestSearchFaultsFacadeParity(t *testing.T) {
	inputs := DistinctInputs(3)
	live := []ProcessID{1, 2, 3}

	plainW, plainFound, err := findFailure(newSearcher(t, Options{}), NewMinWait(1), inputs, live, 1, 0)
	if err != nil {
		t.Fatal(err)
	}

	crashW, crashFound, err := findFailure(newSearcher(t, Options{Faults: "crash"}), NewMinWait(1), inputs, live, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if crashFound != plainFound || crashW.Stats != plainW.Stats {
		t.Fatalf("Faults=crash diverged from empty: %+v/%t vs %+v/%t",
			crashW.Stats, crashFound, plainW.Stats, plainFound)
	}

	for _, spec := range []string{"send-omission:1:1", "receive-omission:1:1", "byzantine:1:1"} {
		w, found, err := findFailure(newSearcher(t, Options{Faults: spec}), NewMinWait(1), inputs, live, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if found != plainFound {
			t.Fatalf("Faults=%s flipped the verdict: found=%t, crash-only %t", spec, found, plainFound)
		}
		if found {
			testutil.RevalidateWitness(t, w.Kind, w.Run)
		}
	}
}

// TestSearcherValidatesSpellings pins the facade's spelling validation: a
// Searcher keeps valid knobs verbatim, and NewSearcher and Options.Validate
// reject a bad store, fault model, or packed mode with an error naming it.
func TestSearcherValidatesSpellings(t *testing.T) {
	o := Options{Workers: 2, Faults: "send-omission:2:1", Store: "frontier"}
	if got := newSearcher(t, o).Options(); got != o {
		t.Fatalf("Searcher options %+v, want %+v", got, o)
	}

	for _, bad := range []struct {
		opts Options
		name string
	}{
		{Options{Faults: "meteor"}, "meteor"},
		{Options{Faults: "crash:1"}, "crash:1"},
		{Options{Store: "tape"}, "tape"},
		{Options{Packed: "auto"}, "auto"},
	} {
		if err := bad.opts.Validate(); err == nil || !strings.Contains(err.Error(), bad.name) {
			t.Fatalf("Validate(%+v) = %v, want an error naming %q", bad.opts, err, bad.name)
		}
		if _, err := NewSearcher(bad.opts); err == nil || !strings.Contains(err.Error(), bad.name) {
			t.Fatalf("NewSearcher(%+v) = %v, want an error naming %q", bad.opts, err, bad.name)
		}
	}
}
