package explore

// Differential gate for the packed struct-of-arrays configuration engine
// (Options.Packed): for every instance shape the repository's searches care
// about — symmetry × POR × fault models × stores × worker counts — the
// packed engine must reproduce the pointer engine BIT FOR BIT: the same
// visited configuration sets in the same insertion order, the same found
// flags, witness details, scheduled witness runs, stats, and truncation
// points. Together with FuzzPackedParity this is the proof obligation that
// lets Options.Packed be a pure memory/speed regime, excluded from search
// digests and safe to flip on any cached or checkpointed search.

import (
	"fmt"
	"testing"

	"kset/internal/algorithms"
	"kset/internal/sim"
	"kset/internal/testutil"
)

// packedDiffCell is one point of the packed differential matrix.
type packedDiffCell struct {
	inst     diffInstance
	symmetry bool
	por      bool
	faults   FaultAdversary
}

func (c packedDiffCell) explorer(packed bool, workers int, store Store) *Explorer {
	return New(sim.Restrict(c.inst.alg, c.inst.live), c.inst.inputs, Options{
		Live:       c.inst.live,
		MaxCrashes: c.inst.crashes,
		Workers:    workers,
		Symmetry:   c.symmetry,
		POR:        c.por,
		Faults:     c.faults,
		Store:      store,
		Packed:     packed,
	})
}

// packedDiffCells spans the handwritten instances across the reduction
// modes, plus fault-adversary arms on the cheapest instance (every fault
// model exercises a distinct packed code path: send omission drops packed
// sends, receive omission drops packed deliveries, Byzantine sets the
// Corrupt flag the packers must ignore and the byz hash chain must cover).
func packedDiffCells() []packedDiffCell {
	var cells []packedDiffCell
	for _, d := range diffInstances() {
		cells = append(cells,
			packedDiffCell{inst: d},
			packedDiffCell{inst: d, symmetry: true},
			packedDiffCell{inst: d, por: true},
			packedDiffCell{inst: d, symmetry: true, por: true},
		)
	}
	small := diffInstance{"minwait-n3-mixed", algorithms.MinWait{F: 1},
		[]sim.Value{0, 0, 1}, []sim.ProcessID{1, 2, 3}, 1}
	for _, model := range []sim.FaultModel{sim.FaultSendOmission, sim.FaultReceiveOmission, sim.FaultByzantine} {
		fa := FaultAdversary{Model: model, Budget: 1, MaxFaulty: 1}
		cells = append(cells,
			packedDiffCell{inst: small, faults: fa},
			packedDiffCell{inst: small, symmetry: true, faults: fa},
		)
	}
	return cells
}

func (c packedDiffCell) name() string {
	s := c.inst.name
	if c.symmetry {
		s += "+sym"
	}
	if c.por {
		s += "+por"
	}
	if c.faults.Model != sim.FaultCrash {
		s += "+" + c.faults.Model.String()
	}
	return s
}

// TestPackedEngineStandsDown pins the silent-fallback contract: Packed on
// an unpackable pair (an algorithm without NewPacker) searches on the
// pointer engine and still reaches the pointer verdict.
func TestPackedEngineStandsDown(t *testing.T) {
	d := diffInstances()[0]
	e := New(sim.Restrict(unpackable{d.alg}, d.live), d.inputs, Options{
		Live: d.live, Workers: 1, Packed: true,
	})
	if e.packed {
		t.Fatal("explorer claims packed for an unpackable algorithm")
	}
	cfg, err := e.initial()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Packed() {
		t.Fatal("initial configuration is packed for an unpackable algorithm")
	}
}

// unpackable hides an algorithm's NewPacker method.
type unpackable struct{ sim.Algorithm }

// TestPackedConfigurationLockstep drives the packed and pointer engines
// through the same breadth-first action tree and asserts, configuration by
// configuration, that every observable the search keys on is bit-identical:
// Key, Fingerprint, LiveFingerprint, and (under symmetry) Canonical64 and
// LiveCanonical64, plus decision vectors and buffer sizes.
func TestPackedConfigurationLockstep(t *testing.T) {
	for _, c := range packedDiffCells() {
		t.Run(c.name(), func(t *testing.T) {
			ptr := c.explorer(false, 1, StoreInMemory)
			pck := c.explorer(true, 1, StoreInMemory)
			if !pck.packed {
				t.Fatal("packed explorer did not resolve the packed engine")
			}
			p0, err := ptr.initial()
			if err != nil {
				t.Fatal(err)
			}
			k0, err := pck.initial()
			if err != nil {
				t.Fatal(err)
			}
			if !k0.Packed() {
				t.Fatal("packed initial configuration is not packed")
			}
			type pair struct {
				ptr, pck *sim.Configuration
				crashes  int
			}
			comparePair := func(path string, p pair) {
				t.Helper()
				if got, want := p.pck.Fingerprint(), p.ptr.Fingerprint(); got != want {
					t.Fatalf("%s: packed fingerprint %#x, pointer %#x", path, got, want)
				}
				if got, want := p.pck.LiveFingerprint(), p.ptr.LiveFingerprint(); got != want {
					t.Fatalf("%s: packed live fingerprint %#x, pointer %#x", path, got, want)
				}
				if c.symmetry {
					if got, want := p.pck.Canonical64(), p.ptr.Canonical64(); got != want {
						t.Fatalf("%s: packed canonical %#x, pointer %#x", path, got, want)
					}
					if got, want := p.pck.LiveCanonical64(), p.ptr.LiveCanonical64(); got != want {
						t.Fatalf("%s: packed live canonical %#x, pointer %#x", path, got, want)
					}
				}
				if got, want := p.pck.Key(), p.ptr.Key(); got != want {
					t.Fatalf("%s: packed key %q, pointer key %q", path, got, want)
				}
			}
			comparePair("initial", pair{ptr: p0, pck: k0})
			visited := map[uint64]bool{cfgKey(p0, 0): true}
			queue := []pair{{ptr: p0, pck: k0}}
			const maxConfigs = 60000
			for len(queue) > 0 {
				if len(visited) > maxConfigs {
					t.Fatalf("state space exceeds %d configurations; shrink the instance", maxConfigs)
				}
				cur := queue[0]
				queue = queue[1:]
				acts := append([]action(nil), ptr.actions(cur.ptr, cur.crashes)...)
				pacts := pck.actions(cur.pck, cur.crashes)
				if fmt.Sprint(acts) != fmt.Sprint(pacts) {
					t.Fatalf("action enumeration diverged:\npointer %v\npacked  %v", acts, pacts)
				}
				for _, act := range acts {
					np, okp := ptr.apply(cur.ptr, act)
					nk, okk := pck.apply(cur.pck, act)
					if okp != okk {
						t.Fatalf("apply(%+v): pointer ok=%t, packed ok=%t", act, okp, okk)
					}
					if !okp {
						continue
					}
					crashes := cur.crashes
					if act.Crash {
						crashes++
					}
					next := pair{ptr: np, pck: nk, crashes: crashes}
					comparePair(fmt.Sprintf("after %+v", act), next)
					if visited[cfgKey(np, crashes)] {
						ptr.release(np)
						pck.release(nk)
						continue
					}
					visited[cfgKey(np, crashes)] = true
					queue = append(queue, next)
				}
			}
		})
	}
}

// TestPackedSearchMatrix runs the production searches on both engines
// across stores and worker counts and asserts identical outcomes: found
// flag, stats (including truncation points), witness detail and scheduled
// run, with found witnesses revalidated as genuine violations.
func TestPackedSearchMatrix(t *testing.T) {
	goals := []struct {
		name string
		find func(*Explorer) (*Witness, bool, error)
	}{
		{"disagreement", (*Explorer).FindDisagreement},
		{"blocking", (*Explorer).FindBlocking},
	}
	stores := []struct {
		name  string
		store Store
	}{
		{"inmem", StoreInMemory},
		{"frontier", StoreFrontierOnly},
		{"spill", StoreSpill},
	}
	for _, c := range packedDiffCells() {
		for _, g := range goals {
			for _, s := range stores {
				t.Run(c.name()+"/"+g.name+"/"+s.name, func(t *testing.T) {
					ptrW, ptrFound, err := g.find(c.explorer(false, 1, s.store))
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 4} {
						pckW, pckFound, err := g.find(c.explorer(true, workers, s.store))
						if err != nil {
							t.Fatal(err)
						}
						if pckFound != ptrFound {
							t.Fatalf("workers=%d: packed found=%t, pointer found=%t", workers, pckFound, ptrFound)
						}
						if pckW.Stats != ptrW.Stats {
							t.Fatalf("workers=%d: packed stats %+v, pointer %+v", workers, pckW.Stats, ptrW.Stats)
						}
						if !pckFound {
							continue
						}
						if pckW.Detail != ptrW.Detail {
							t.Fatalf("workers=%d: packed detail %q, pointer %q", workers, pckW.Detail, ptrW.Detail)
						}
						if got, want := runSignature(pckW.Run), runSignature(ptrW.Run); got != want {
							t.Fatalf("workers=%d: witness run diverged:\n got %s\nwant %s", workers, got, want)
						}
						testutil.RevalidateWitness(t, pckW.Kind, pckW.Run)
					}
				})
			}
		}
	}
}

// TestPackedArenaVisitedSet asserts that on exhaustive in-memory searches
// the packed engine visits exactly the pointer engine's configuration set —
// equal visited-key sets, per-level record counts, and truncation
// behaviour.
func TestPackedArenaVisitedSet(t *testing.T) {
	for _, c := range packedDiffCells() {
		t.Run(c.name(), func(t *testing.T) {
			_, ptrFound, ptrSt, err := c.explorer(false, 1, StoreInMemory).searchBounded(disagreementGoal, "disagreement")
			if err != nil {
				t.Fatal(err)
			}
			_, pckFound, pckSt, err := c.explorer(true, 1, StoreInMemory).searchBounded(disagreementGoal, "disagreement")
			if err != nil {
				t.Fatal(err)
			}
			if ptrFound != pckFound {
				t.Fatalf("packed found=%t, pointer found=%t", pckFound, ptrFound)
			}
			if ptrFound {
				return // found searches stop early; lockstep covers them
			}
			assertSameVisited(t, "packed", pckSt, ptrSt)
		})
	}
}
