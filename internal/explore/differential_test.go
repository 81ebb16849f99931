package explore

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"kset/internal/algorithms"
	"kset/internal/sim"
	"kset/internal/testutil"
)

// legacyKey is the seed implementation's string node key: crash budget spent
// plus the fully materialized configuration key.
func legacyKey(cfg *sim.Configuration, crashes int) string {
	return fmt.Sprintf("c%d|%s", crashes, cfg.Key())
}

// enumerate walks the full reachable space of e (which must be exhaustive
// within maxConfigs), deduplicating either by the legacy string key or by
// the fingerprint key, and returns the canonical (string) identity of every
// distinct configuration visited. Equal result sets across the two modes
// prove the fingerprint dedup neither merges distinct configurations
// (collision) nor re-expands equal ones (incrementality bug).
func enumerate(t *testing.T, e *Explorer, byFingerprint bool, maxConfigs int) map[string]bool {
	t.Helper()
	start, err := e.initial()
	if err != nil {
		t.Fatal(err)
	}
	type qent struct {
		cfg     *sim.Configuration
		crashes int
	}
	reached := map[string]bool{legacyKey(start, 0): true}
	visitedStr := map[string]bool{legacyKey(start, 0): true}
	visitedFP := map[uint64]bool{cfgKey(start, 0): true}
	queue := []qent{{cfg: start}}
	for len(queue) > 0 {
		if len(reached) > maxConfigs {
			t.Fatalf("state space exceeds %d configurations; shrink the instance", maxConfigs)
		}
		cur := queue[0]
		queue = queue[1:]
		for _, act := range e.actions(cur.cfg, cur.crashes) {
			next, ok := e.apply(cur.cfg, act)
			if !ok {
				continue
			}
			crashes := cur.crashes
			if act.Crash {
				crashes++
			}
			var seen bool
			if byFingerprint {
				seen = visitedFP[cfgKey(next, crashes)]
				visitedFP[cfgKey(next, crashes)] = true
			} else {
				seen = visitedStr[legacyKey(next, crashes)]
				visitedStr[legacyKey(next, crashes)] = true
			}
			if seen {
				e.release(next)
				continue
			}
			reached[legacyKey(next, crashes)] = true
			queue = append(queue, qent{cfg: next, crashes: crashes})
		}
	}
	return reached
}

// diffInstance is one small, exhaustively explorable system.
type diffInstance struct {
	name    string
	alg     sim.Algorithm
	inputs  []sim.Value
	live    []sim.ProcessID
	crashes int
}

func diffInstances() []diffInstance {
	return []diffInstance{
		{"minwait-n3", algorithms.MinWait{F: 1}, []sim.Value{0, 1, 2}, []sim.ProcessID{1, 2, 3}, 0},
		{"minwait-n3-crash", algorithms.MinWait{F: 1}, []sim.Value{0, 1, 2}, []sim.ProcessID{1, 2, 3}, 1},
		{"minwait-n4-sub3", algorithms.MinWait{F: 2}, []sim.Value{0, 1, 2, 3}, []sim.ProcessID{1, 2, 4}, 1},
		{"flpkset-n3", algorithms.FLPKSet{F: 1}, []sim.Value{0, 1, 2}, []sim.ProcessID{1, 2, 3}, 0},
		{"firstheard-n4", algorithms.FirstHeard{}, []sim.Value{0, 1, 2, 3}, []sim.ProcessID{1, 2, 3, 4}, 0},
	}
}

func (d diffInstance) explorer() *Explorer {
	return d.explorerWorkers(1)
}

// explorerWorkers builds the instance's explorer with an explicit search
// worker count (1 = the sequential legacy engine).
func (d diffInstance) explorerWorkers(workers int) *Explorer {
	return New(sim.Restrict(d.alg, d.live), d.inputs, Options{
		Live:       d.live,
		MaxCrashes: d.crashes,
		Workers:    workers,
	})
}

// TestFingerprintDedupVisitsLegacySet asserts, per instance, that the
// fingerprint-keyed BFS reaches exactly the configuration set of the legacy
// string-keyed BFS.
func TestFingerprintDedupVisitsLegacySet(t *testing.T) {
	for _, d := range diffInstances() {
		t.Run(d.name, func(t *testing.T) {
			const maxConfigs = 400000
			legacy := enumerate(t, d.explorer(), false, maxConfigs)
			fp := enumerate(t, d.explorer(), true, maxConfigs)
			if len(legacy) != len(fp) {
				t.Fatalf("visited %d configurations with string dedup, %d with fingerprint dedup",
					len(legacy), len(fp))
			}
			for key := range legacy {
				if !fp[key] {
					t.Fatalf("fingerprint search missed configuration %s", key)
				}
			}
		})
	}
}

// TestFingerprintSearchFindsLegacyWitnesses asserts that the production
// searches find a witness exactly when the legacy string-keyed enumeration
// contains one, after visiting exactly as many configurations, that the
// witness is the legacy search's first hit, and that found witnesses replay
// to genuine violations.
func TestFingerprintSearchFindsLegacyWitnesses(t *testing.T) {
	for _, d := range diffInstances() {
		t.Run(d.name, func(t *testing.T) {
			want := legacySearch(t, d, disagreementGoal)

			w, found, err := d.explorer().FindDisagreement()
			if err != nil {
				t.Fatal(err)
			}
			if w.Stats.Truncated {
				t.Fatalf("instance not exhaustive (visited %d)", w.Stats.Visited)
			}
			want.check(t, d, w, found)
			if found {
				testutil.RevalidateWitness(t, w.Kind, w.Run)
			}
		})
	}
}

// runSignature reduces a witness run to a comparable encoding: the scheduled
// step sequence plus the final configuration's canonical key.
func runSignature(r *sim.Run) string {
	var b strings.Builder
	for _, ev := range r.Events {
		fmt.Fprintf(&b, "(p%d c%t s%t d%d)", ev.Proc, ev.Crashed, ev.Silent, len(ev.Delivered))
	}
	b.WriteString("|")
	b.WriteString(r.Final.Key())
	return b.String()
}

// TestParallelSearchVisitsSequentialSet asserts, per instance and per goal,
// that the level-synchronous parallel frontier search produces results
// bit-identical to the serial search — same found flag, witness detail,
// scheduled witness run, and stats — and, on exhaustive searches, that it
// visits exactly the serial search's configuration set (equal visited-key
// sets and per-level record counts). The serial search itself is checked
// against the engine-independent legacy string-keyed BFS.
func TestParallelSearchVisitsSequentialSet(t *testing.T) {
	goals := []struct {
		name string
		goal goalFunc
	}{
		{"disagreement", disagreementGoal},
		{"blocking", blockingGoal},
	}
	for _, d := range diffInstances() {
		for _, g := range goals {
			t.Run(d.name+"/"+g.name, func(t *testing.T) {
				seqW, seqFound, seqSt, err := d.explorerWorkers(1).searchBounded(g.goal, g.name)
				if err != nil {
					t.Fatal(err)
				}
				legacySearch(t, d, g.goal).check(t, d, seqW, seqFound)
				for _, workers := range []int{2, 4} {
					parW, parFound, parSt, err := d.explorerWorkers(workers).searchBounded(g.goal, g.name)
					if err != nil {
						t.Fatal(err)
					}
					if parFound != seqFound {
						t.Fatalf("workers=%d: found=%t, sequential found=%t", workers, parFound, seqFound)
					}
					if parW.Stats != seqW.Stats {
						t.Fatalf("workers=%d: stats %+v, sequential %+v", workers, parW.Stats, seqW.Stats)
					}
					if seqFound {
						if parW.Detail != seqW.Detail {
							t.Fatalf("workers=%d: detail %q, sequential %q", workers, parW.Detail, seqW.Detail)
						}
						if got, want := runSignature(parW.Run), runSignature(seqW.Run); got != want {
							t.Fatalf("workers=%d: witness run diverged:\n got %s\nwant %s", workers, got, want)
						}
						continue
					}
					// Exhaustive search: the visited sets must be identical.
					assertSameVisited(t, fmt.Sprintf("workers=%d", workers), parSt, seqSt)
				}
			})
		}
	}
}

// levelCounts returns the number of generation records each level of a
// finished breadth-first search produced: its visited set's level profile.
func levelCounts(st *boundedState) []int {
	n := make([]int, st.sink.levels())
	for l := range n {
		n[l] = st.sink.levelLen(l)
	}
	return n
}

// assertSameVisited fails unless two exhaustive breadth-first searches
// sealed the same visited-key set with the same per-level record counts.
func assertSameVisited(t *testing.T, label string, got, want *boundedState) {
	t.Helper()
	if got.vis.Len() != want.vis.Len() || !reflect.DeepEqual(levelCounts(got), levelCounts(want)) {
		t.Fatalf("%s: visited %d levels %v, reference visited %d levels %v",
			label, got.vis.Len(), levelCounts(got), want.vis.Len(), levelCounts(want))
	}
	want.vis.Range(func(key uint64) bool {
		if !got.vis.Contains(key) {
			t.Fatalf("%s: missed visited key %#x", label, key)
		}
		return true
	})
}

// legacyResult is the outcome of the legacy string-keyed BFS: whether a
// goal configuration is reachable, the sequential Stats.Visited at the first
// hit (or at exhaustion), and the action path to the hit.
type legacyResult struct {
	found   bool
	visited int
	acts    []action
}

// legacySearch runs the seed implementation's string-keyed BFS on d until
// the first configuration satisfying goal: an engine-independent reference
// that shares only action enumeration and application with the production
// driver, not its visited set, level records, or witness path.
func legacySearch(t *testing.T, d diffInstance, goal goalFunc) legacyResult {
	t.Helper()
	e := d.explorer()
	start, err := e.initial()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := goal(&e.sc, start); ok {
		return legacyResult{found: true}
	}
	type pathNode struct {
		parent *pathNode
		act    action
	}
	type qent struct {
		cfg     *sim.Configuration
		crashes int
		path    *pathNode
	}
	visited := map[string]bool{legacyKey(start, 0): true}
	queue := []qent{{cfg: start}}
	dequeued := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		dequeued++
		for _, act := range e.actions(cur.cfg, cur.crashes) {
			next, ok := e.apply(cur.cfg, act)
			if !ok {
				continue
			}
			crashes := cur.crashes
			if act.Crash {
				crashes++
			}
			key := legacyKey(next, crashes)
			if visited[key] {
				e.release(next)
				continue
			}
			visited[key] = true
			path := &pathNode{parent: cur.path, act: act}
			if _, ok := goal(&e.sc, next); ok {
				var acts []action
				for n := path; n != nil; n = n.parent {
					acts = append([]action{n.act}, acts...)
				}
				return legacyResult{found: true, visited: dequeued, acts: acts}
			}
			queue = append(queue, qent{cfg: next, crashes: crashes, path: path})
		}
	}
	return legacyResult{visited: dequeued}
}

// check fails unless a production breadth-first search of d agrees with the
// legacy result: found flag, visited count, and — for found witnesses — the
// scheduled run of the legacy search's first hit.
func (r legacyResult) check(t *testing.T, d diffInstance, w *Witness, found bool) {
	t.Helper()
	if found != r.found || w.Stats.Visited != r.visited {
		t.Fatalf("found=%t visited=%d, legacy string-keyed BFS found=%t visited=%d",
			found, w.Stats.Visited, r.found, r.visited)
	}
	if !found {
		return
	}
	run, err := d.explorer().replayActions(r.acts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := runSignature(w.Run), runSignature(run); got != want {
		t.Fatalf("witness diverged from the legacy first hit:\n got %s\nwant %s", got, want)
	}
}
