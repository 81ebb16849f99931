package explore

import (
	"reflect"
	"runtime"
	"testing"

	"kset/internal/algorithms"
	"kset/internal/sim"
)

// TestParallelSearchDeterministic runs the parallel finders repeatedly with
// more workers than frontier entries and asserts that every run returns the
// identical witness: same detail, same scheduled run, same stats. This is
// the determinism guarantee of the claim-table design, independent of
// goroutine interleaving.
func TestParallelSearchDeterministic(t *testing.T) {
	d := diffInstances()[0] // minwait-n3: disagreement reachable
	var detail, sig string
	var stats Stats
	for i := 0; i < 5; i++ {
		w, found, err := d.explorerWorkers(8).FindDisagreement()
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatal("witness not found")
		}
		if i == 0 {
			detail, sig, stats = w.Detail, runSignature(w.Run), w.Stats
			continue
		}
		if w.Detail != detail || runSignature(w.Run) != sig || w.Stats != stats {
			t.Fatalf("run %d diverged: detail=%q stats=%+v", i, w.Detail, w.Stats)
		}
	}
}

// TestParallelTruncationParity sweeps MaxConfigs budgets — including values
// that cut a BFS level mid-way — and asserts the parallel search reports
// exactly the sequential search's found flag, stats, and truncation.
func TestParallelTruncationParity(t *testing.T) {
	d := diffInstances()[1] // minwait-n3-crash: larger space, witnesses exist
	for _, maxConfigs := range []int{1, 2, 3, 7, 25, 100, 999, 5000} {
		mk := func(workers int) *Explorer {
			return New(sim.Restrict(d.alg, d.live), d.inputs, Options{
				Live:       d.live,
				MaxCrashes: d.crashes,
				MaxConfigs: maxConfigs,
				Workers:    workers,
			})
		}
		seqW, seqFound, err := mk(1).FindDisagreement()
		if err != nil {
			t.Fatal(err)
		}
		parW, parFound, err := mk(4).FindDisagreement()
		if err != nil {
			t.Fatal(err)
		}
		if parFound != seqFound || parW.Stats != seqW.Stats {
			t.Fatalf("maxConfigs=%d: parallel found=%t stats=%+v, sequential found=%t stats=%+v",
				maxConfigs, parFound, parW.Stats, seqFound, seqW.Stats)
		}
		if seqFound && runSignature(parW.Run) != runSignature(seqW.Run) {
			t.Fatalf("maxConfigs=%d: witness runs diverged", maxConfigs)
		}
	}
}

// TestParallelValenceMatchesSequential asserts that parallel valence
// computation — exhaustive and with early stop, where the per-parent gate
// emulation matters — returns the sequential values and stats.
func TestParallelValenceMatchesSequential(t *testing.T) {
	for _, d := range diffInstances() {
		for _, stopAt := range []int{0, 2} {
			seqVals, seqStats, err := d.explorerWorkers(1).Valence(stopAt)
			if err != nil {
				t.Fatal(err)
			}
			parVals, parStats, err := d.explorerWorkers(4).Valence(stopAt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(parVals, seqVals) || parStats != seqStats {
				t.Fatalf("%s stopAt=%d: parallel %v %+v, sequential %v %+v",
					d.name, stopAt, parVals, parStats, seqVals, seqStats)
			}
		}
	}
}

// TestParallelCriticalStepsMatchSequential asserts the full critical-step
// analysis — whose successor valences run on the parallel frontier — is
// unchanged by the worker count.
func TestParallelCriticalStepsMatchSequential(t *testing.T) {
	mk := func(workers int) *Explorer {
		return New(algorithms.MinWait{F: 1}, []sim.Value{0, 1, 1}, Options{
			Live:    []sim.ProcessID{1, 2, 3},
			Workers: workers,
		})
	}
	seq, err := mk(1).AnalyzeCriticalSteps()
	if err != nil {
		t.Fatal(err)
	}
	par, err := mk(4).AnalyzeCriticalSteps()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, seq) {
		t.Fatalf("critical-step analyses diverged:\nparallel   %+v\nsequential %+v", par, seq)
	}
}

// TestSearchWorkersResolution checks the Workers knob: zero resolves to
// GOMAXPROCS, explicit values are respected, and the DFS strategy stays on
// the sequential engine regardless.
func TestSearchWorkersResolution(t *testing.T) {
	e := New(algorithms.MinWait{F: 1}, []sim.Value{0, 1, 2}, Options{Live: []sim.ProcessID{1, 2, 3}})
	if got, want := e.searchWorkers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default workers = %d, want GOMAXPROCS = %d", got, want)
	}
	e = New(algorithms.MinWait{F: 1}, []sim.Value{0, 1, 2}, Options{Live: []sim.ProcessID{1, 2, 3}, Workers: 3})
	if got := e.searchWorkers(); got != 3 {
		t.Fatalf("workers = %d, want 3", got)
	}

	// DFS with many workers must match DFS with one worker (it is the same
	// sequential engine; the knob only applies to breadth-first searches).
	mk := func(workers int) *Explorer {
		return New(algorithms.MinWait{F: 1}, []sim.Value{0, 1, 2}, Options{
			Live:     []sim.ProcessID{1, 2, 3},
			Strategy: "dfs",
			Workers:  workers,
		})
	}
	seqW, seqFound, err := mk(1).FindDisagreement()
	if err != nil {
		t.Fatal(err)
	}
	parW, parFound, err := mk(4).FindDisagreement()
	if err != nil {
		t.Fatal(err)
	}
	if parFound != seqFound || parW.Stats != seqW.Stats || runSignature(parW.Run) != runSignature(seqW.Run) {
		t.Fatal("DFS search changed behaviour under Workers > 1")
	}
}

// TestParallelSearchWithOracle exercises the parallel frontier under a
// failure-detector oracle (pure, concurrency-safe) and checks parity with
// the sequential search.
func TestParallelSearchWithOracle(t *testing.T) {
	oracle := stubOracle{}
	mk := func(workers int) *Explorer {
		return New(algorithms.MinWait{F: 1}, []sim.Value{0, 1, 2}, Options{
			Live:    []sim.ProcessID{1, 2, 3},
			Oracle:  oracle,
			Workers: workers,
		})
	}
	seqW, seqFound, seqSt, err := mk(1).searchBounded(disagreementGoal, "disagreement")
	if err != nil {
		t.Fatal(err)
	}
	parW, parFound, parSt, err := mk(4).searchBounded(disagreementGoal, "disagreement")
	if err != nil {
		t.Fatal(err)
	}
	if parFound != seqFound || parW.Stats != seqW.Stats {
		t.Fatalf("oracle search diverged: parallel %+v/%t, sequential %+v/%t",
			parW.Stats, parFound, seqW.Stats, seqFound)
	}
	if seqFound {
		if runSignature(parW.Run) != runSignature(seqW.Run) {
			t.Fatal("oracle witness runs diverged")
		}
	} else if parSt.vis.Len() != seqSt.vis.Len() {
		t.Fatalf("oracle visited sets diverged: %d vs %d", parSt.vis.Len(), seqSt.vis.Len())
	}
}

// stubOracle is a pure, concurrency-safe oracle: a deterministic function of
// the query alone.
type stubOracle struct{}

func (stubOracle) Query(p sim.ProcessID, t int, _ *sim.Configuration) sim.FDValue {
	return nil
}
