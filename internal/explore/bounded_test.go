package explore

import (
	"reflect"
	"testing"

	"kset/internal/sim"
	"kset/internal/testutil"
)

// explorerStore builds the instance's explorer with an explicit store mode,
// worker count, and reduction stack.
func (d diffInstance) explorerStore(store Store, workers int, symmetry, por bool) *Explorer {
	return New(sim.Restrict(d.alg, d.live), d.inputs, Options{
		Live:       d.live,
		MaxCrashes: d.crashes,
		Workers:    workers,
		Symmetry:   symmetry,
		POR:        por,
		Store:      store,
		SpillDir:   "", // system temp dir
	})
}

// TestBoundedStoreVerdictParity is the acceptance gate of the bounded
// stores: for every instance of the extended differential suite, both
// witness goals, both bounded stores, workers 1/2/4, and the reduction
// stack off and on, the bounded search must return bit-identical results to
// the serial in-memory store — found flag, stats, witness detail, and the
// scheduled witness run — and found witnesses must independently
// revalidate.
func TestBoundedStoreVerdictParity(t *testing.T) {
	goals := []struct {
		name string
		goal goalFunc
	}{
		{"disagreement", disagreementGoal},
		{"blocking", blockingGoal},
	}
	for _, reduced := range []bool{false, true} {
		for _, d := range porInstances() {
			for _, g := range goals {
				name := d.name + "/" + g.name
				if reduced {
					name = "sym+por/" + name
				}
				t.Run(name, func(t *testing.T) {
					ref := New(sim.Restrict(d.alg, d.live), d.inputs, Options{
						Live: d.live, MaxCrashes: d.crashes, Workers: 1,
						Symmetry: reduced, POR: reduced,
					})
					refW, refFound, _, err := ref.searchBounded(g.goal, g.name)
					if err != nil {
						t.Fatal(err)
					}
					// Frontier-only runs the full worker matrix; spill — whose
					// only difference is the record sink — runs serial plus
					// one parallel width, and only on the unreduced pass, to
					// keep the race-detector wall clock sane.
					combos := []struct {
						store   Store
						workers int
					}{
						{StoreFrontierOnly, 1}, {StoreFrontierOnly, 2}, {StoreFrontierOnly, 4},
						{StoreSpill, 1}, {StoreSpill, 4},
					}
					if reduced {
						combos = combos[:3]
					}
					for _, c := range combos {
						store, workers := c.store, c.workers
						e := d.explorerStore(store, workers, reduced, reduced)
						w, found, err := e.search(g.goal, g.name)
						if err != nil {
							t.Fatal(err)
						}
						if found != refFound || w.Stats != refW.Stats {
							t.Fatalf("%v workers=%d: found=%t stats=%+v, in-memory found=%t stats=%+v",
								store, workers, found, w.Stats, refFound, refW.Stats)
						}
						if !found {
							continue
						}
						if w.Detail != refW.Detail {
							t.Fatalf("%v workers=%d: detail %q, in-memory %q", store, workers, w.Detail, refW.Detail)
						}
						if got, want := runSignature(w.Run), runSignature(refW.Run); got != want {
							t.Fatalf("%v workers=%d: witness run diverged:\n got %s\nwant %s", store, workers, got, want)
						}
						testutil.RevalidateWitness(t, w.Kind, w.Run)
					}
				})
			}
		}
	}
}

// TestInMemoryLevelProgress pins the in-memory store's progress stream: a
// serial in-memory breadth-first search reports its sealed levels as 1..d,
// with cumulative visited counts equal to the frontier-only store's profile.
func TestInMemoryLevelProgress(t *testing.T) {
	goals := []struct {
		name string
		goal goalFunc
	}{
		{"disagreement", disagreementGoal},
		{"blocking", blockingGoal},
	}
	reported := 0
	for _, d := range diffInstances() {
		for _, g := range goals {
			profile := func(store Store) [][2]int {
				var prog [][2]int
				e := New(sim.Restrict(d.alg, d.live), d.inputs, Options{
					Live:       d.live,
					MaxCrashes: d.crashes,
					Workers:    1,
					Store:      store,
					OnProgress: func(visited, level int) { prog = append(prog, [2]int{visited, level}) },
				})
				if _, _, err := e.search(g.goal, g.name); err != nil {
					t.Fatal(err)
				}
				return prog
			}
			got, want := profile(StoreInMemory), profile(StoreFrontierOnly)
			for i, p := range got {
				if p[1] != i+1 {
					t.Fatalf("%s/%s: progress report %d has level %d, want %d", d.name, g.name, i, p[1], i+1)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: in-memory profile %v, frontier-only %v", d.name, g.name, got, want)
			}
			reported += len(got)
		}
	}
	if reported == 0 {
		t.Fatal("no search reported a sealed level")
	}
}

// TestBoundedTruncationParity sweeps MaxConfigs budgets — including values
// that cut a BFS level mid-way — and asserts the bounded stores report
// exactly the in-memory engine's found flag, stats, and truncation at
// workers 1 and 4.
func TestBoundedTruncationParity(t *testing.T) {
	d := diffInstances()[1] // minwait-n3-crash: larger space, witnesses exist
	for _, maxConfigs := range []int{1, 2, 3, 7, 25, 100, 999, 5000} {
		mk := func(store Store, workers int) *Explorer {
			return New(sim.Restrict(d.alg, d.live), d.inputs, Options{
				Live:       d.live,
				MaxCrashes: d.crashes,
				MaxConfigs: maxConfigs,
				Workers:    workers,
				Store:      store,
			})
		}
		seqW, seqFound, err := mk(StoreInMemory, 1).FindDisagreement()
		if err != nil {
			t.Fatal(err)
		}
		for _, store := range []Store{StoreFrontierOnly, StoreSpill} {
			for _, workers := range []int{1, 4} {
				w, found, err := mk(store, workers).FindDisagreement()
				if err != nil {
					t.Fatal(err)
				}
				if found != seqFound || w.Stats != seqW.Stats {
					t.Fatalf("maxConfigs=%d %v workers=%d: found=%t stats=%+v, in-memory found=%t stats=%+v",
						maxConfigs, store, workers, found, w.Stats, seqFound, seqW.Stats)
				}
				if seqFound && runSignature(w.Run) != runSignature(seqW.Run) {
					t.Fatalf("maxConfigs=%d %v workers=%d: witness runs diverged", maxConfigs, store, workers)
				}
			}
		}
	}
}

// TestBoundedDFSParity asserts that the depth-first search is independent of
// the store, including under the reduction stack: in-memory and
// frontier-only DFS agree exactly.
func TestBoundedDFSParity(t *testing.T) {
	for _, reduced := range []bool{false, true} {
		for _, d := range porInstances() {
			mk := func(store Store) *Explorer {
				return New(sim.Restrict(d.alg, d.live), d.inputs, Options{
					Live:       d.live,
					MaxCrashes: d.crashes,
					Strategy:   "dfs",
					Workers:    1,
					Symmetry:   reduced,
					POR:        reduced,
					Store:      store,
				})
			}
			refW, refFound, err := mk(StoreInMemory).FindDisagreement()
			if err != nil {
				t.Fatal(err)
			}
			w, found, err := mk(StoreFrontierOnly).FindDisagreement()
			if err != nil {
				t.Fatal(err)
			}
			if found != refFound || w.Stats != refW.Stats {
				t.Fatalf("%s reduced=%t: dfs bounded found=%t stats=%+v, in-memory found=%t stats=%+v",
					d.name, reduced, found, w.Stats, refFound, refW.Stats)
			}
			if found && runSignature(w.Run) != runSignature(refW.Run) {
				t.Fatalf("%s reduced=%t: dfs witness runs diverged", d.name, reduced)
			}
		}
	}
}

// TestBoundedValenceParity asserts valence classification under bounded
// stores matches the in-memory results (valence is frontier-only by
// construction; the store knob must not change anything).
func TestBoundedValenceParity(t *testing.T) {
	for _, d := range diffInstances() {
		for _, stopAt := range []int{0, 2} {
			refVals, refStats, err := d.explorerWorkers(1).Valence(stopAt)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				e := d.explorerStore(StoreFrontierOnly, workers, false, false)
				vals, stats, err := e.Valence(stopAt)
				if err != nil {
					t.Fatal(err)
				}
				if stats != refStats || len(vals) != len(refVals) {
					t.Fatalf("%s stopAt=%d workers=%d: bounded %v %+v, in-memory %v %+v",
						d.name, stopAt, workers, vals, stats, refVals, refStats)
				}
				for i := range vals {
					if vals[i] != refVals[i] {
						t.Fatalf("%s stopAt=%d: bounded values %v, in-memory %v", d.name, stopAt, vals, refVals)
					}
				}
			}
		}
	}
}

// TestVisitedSetModel drives the compact visited set against a map model.
func TestVisitedSetModel(t *testing.T) {
	v := newVisitedSet()
	model := map[uint64]bool{}
	// A deterministic pseudo-random walk plus adversarial patterns: dense
	// low bits (one shard), the zero key, and re-insertions.
	keys := []uint64{0, 1, 2, 3, 1 << 56, 2 << 56, 0xffffffffffffffff}
	x := uint64(12345)
	for i := 0; i < 20000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		keys = append(keys, x)
	}
	for i, k := range keys {
		if got, want := v.Contains(k), model[k]; got != want {
			t.Fatalf("step %d: Contains(%#x) = %t, want %t", i, k, got, want)
		}
		if got, want := v.Insert(k), !model[k]; got != want {
			t.Fatalf("step %d: Insert(%#x) fresh = %t, want %t", i, k, got, want)
		}
		model[k] = true
		if !v.Contains(k) {
			t.Fatalf("step %d: key %#x lost after insert", i, k)
		}
	}
	// Every key re-inserts as a duplicate.
	for _, k := range keys {
		if v.Insert(k) {
			t.Fatalf("key %#x re-inserted as fresh", k)
		}
	}
	if v.Len() != len(model) {
		t.Fatalf("Len() = %d, want %d", v.Len(), len(model))
	}
	seen := map[uint64]bool{}
	v.Range(func(k uint64) bool { seen[k] = true; return true })
	if len(seen) != len(model) {
		t.Fatalf("Range yielded %d keys, want %d", len(seen), len(model))
	}
	for k := range model {
		if !seen[k] {
			t.Fatalf("Range missed key %#x", k)
		}
	}
}

// FuzzVisitedSet differentially fuzzes the compact visited set against a
// map model over arbitrary insert/contains streams.
func FuzzVisitedSet(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xee})
	f.Fuzz(func(t *testing.T, data []byte) {
		v := newVisitedSet()
		model := map[uint64]bool{}
		for len(data) >= 8 {
			var k uint64
			for i := 0; i < 8; i++ {
				k |= uint64(data[i]) << (8 * i)
			}
			data = data[8:]
			if got, want := v.Insert(k), !model[k]; got != want {
				t.Fatalf("Insert(%#x) fresh = %t, want %t", k, got, want)
			}
			model[k] = true
			if !v.Contains(k) {
				t.Fatalf("key %#x missing after insert", k)
			}
		}
		if v.Len() != len(model) {
			t.Fatalf("Len() = %d, want %d", v.Len(), len(model))
		}
	})
}
