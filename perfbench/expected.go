package main

import (
	"fmt"
	"math/rand"
	"sort"

	"kset"
	"kset/internal/explore"
)

// This file is the seeded input generator and the expected-verdict table.
// A seed changes the proposal values, the max_configs tags that make
// digests distinct and ksetd-mix's repeat pattern; it never changes a
// shape, so every seed does the same work and every expected count below
// holds for every seed.

// searchShape is one FindConsensusFailure job class, run reps times per
// round (once when reps is 0). The expected fields
// are the verdict the Searcher must return; states is the number of
// configurations both phases explore together (disagreement, then
// blocking when no disagreement exists), which is what states_per_s counts.
type searchShape struct {
	name       string
	alg        string
	f, n       int
	budget     int
	maxConfigs int
	opts       kset.Options
	reps       int

	found     bool
	kind      string
	visited   int
	truncated bool
	states    int64
}

// Uniform proposals (every process proposes the same seeded value) make
// disagreement unreachable, so the disagreement phase is an exhaustive
// verification and the blocking phase follows it.
//
// A round runs these and then the check jobs, in this order, most
// expensive first, on every seed, so each job follows the same
// predecessor. The repetitions place the median of the round's 11
// requests in the middle of the minwait-n5-sym class and their 95th
// percentile inside the flpkset class, for any number of rounds: neither
// sits on the boundary between two job classes, where it would jump
// between them.
var serialShapes = []searchShape{
	// Capped at ksetd's default 80k budget: the disagreement phase stops at
	// the cap (uncapped it runs for minutes), the blocking phase finds a
	// witness below it.
	{name: "flpkset-n4-capped", alg: "flpkset", f: 1, n: 4, budget: 1, maxConfigs: 80_000,
		found: true, kind: "blocking", visited: 67465, states: 80_000 + 67465},
	{name: "minwait-n4", alg: "minwait", f: 1, n: 4, budget: 1, maxConfigs: 2_000_000,
		kind: "blocking", visited: 42683, states: 2 * 42683},
	{name: "firstheard-n4", alg: "firstheard", f: 1, n: 4, budget: 1, maxConfigs: 2_000_000,
		kind: "blocking", visited: 41379, states: 2 * 41379},
	{name: "quorummin-n4", alg: "quorummin", f: 1, n: 4, budget: 1, maxConfigs: 2_000_000,
		found: true, kind: "blocking", visited: 13698, states: 42683 + 13698},
	{name: "minwait-n5-sym", alg: "minwait", f: 1, n: 5, budget: 1, maxConfigs: 2_000_000,
		opts: kset.Options{Symmetry: true}, reps: 3, kind: "blocking", visited: 8492, states: 2 * 8492},
	{name: "minwait-f2-n5-sym-por", alg: "minwait", f: 2, n: 5, budget: 2, maxConfigs: 2_000_000,
		opts: kset.Options{Symmetry: true, POR: true}, kind: "blocking", visited: 3891, states: 2 * 3891},
	{name: "minwait-n5-sym-por", alg: "minwait", f: 1, n: 5, budget: 1, maxConfigs: 2_000_000,
		opts: kset.Options{Symmetry: true, POR: true}, kind: "blocking", visited: 2738, states: 2 * 2738},
}

// boundedShape is experiment E13's instance at n = 7: uniform MinWait f=2,
// crash budget 2, symmetry and POR stacked, every process live.
var boundedShape = searchShape{
	name: "e13-minwait-n7", alg: "minwait", f: 2, n: 7, budget: 2, maxConfigs: 8_000_000,
	opts: kset.Options{Symmetry: true, POR: true}, kind: "blocking", visited: 128715, states: 2 * 128715,
}

// checkShape is one Searcher.CheckImpossibility job class: a Theorem 2
// instance with the proof's partition and distinct proposals.
type checkShape struct {
	name     string
	alg      string
	n, f, k  int
	strategy string

	violation string
	visited   int
}

// A round runs these after serialShapes, in this order.
var checkShapes = []checkShape{
	{name: "thm2-minwait-n6", alg: "minwait", n: 6, f: 4, k: 2, strategy: "bfs", violation: "k-agreement", visited: 43},
	{name: "thm2-firstheard-n5", alg: "firstheard", n: 5, f: 3, k: 2, strategy: "dfs", violation: "k-agreement", visited: 4},
}

// ksetdCold is the ksetd-mix job class: the Theorem 2 refutation of MinWait
// at n=5, about a millisecond of search on the pointer engine. The seed
// varies max_configs far above the 31 configurations the search needs, so
// each cold submission has a fresh digest at identical cost.
var ksetdCold = struct {
	alg      string
	n, f, k  int
	strategy string

	summary   string
	violation string
	kind      string
	visited   int
}{
	alg: "minwait", n: 5, f: 3, k: 2, strategy: "bfs",
	summary:   "partition: 1 groups + D-bar [3 4 5]; (A)=satisfied (B)=satisfied (C)=satisfied (D)=satisfied; REFUTED: k-agreement violation (3 distinct decisions > k=2)",
	violation: "k-agreement", kind: "disagreement", visited: 31,
}

// shardedShape is the sharded-2p job: ksetd's search goal always proposes
// distinct values, so the uniform E13 instance cannot be submitted to it;
// this is the same MinWait f=2, budget 2, symmetry+POR shape at n = 6.
// Its verdict is also computed unsharded, with bounded-parallel's engine
// settings, and must agree.
var shardedShape = struct {
	alg          string
	n, f, budget int
	kind         string
	visited      int
	states       int64
}{alg: "minwait", n: 6, f: 2, budget: 2, kind: "disagreement", visited: 8546, states: 8546}

// uniformInputs returns n copies of v.
func uniformInputs(n int, v kset.Value) []kset.Value {
	in := make([]kset.Value, n)
	for i := range in {
		in[i] = v
	}
	return in
}

// allLive returns processes 1..n.
func allLive(n int) []kset.ProcessID {
	live := make([]kset.ProcessID, n)
	for i := range live {
		live[i] = kset.ProcessID(i + 1)
	}
	return live
}

// increasingInputs returns n distinct seeded proposals in increasing
// process order: the same order as kset.DistinctInputs, so every Theorem 2
// verdict and count is unchanged.
func increasingInputs(rng *rand.Rand, n int) []kset.Value {
	seen := map[int]bool{}
	vals := make([]int, 0, n)
	for len(vals) < n {
		v := rng.Intn(1 << 20)
		if !seen[v] {
			seen[v] = true
			vals = append(vals, v)
		}
	}
	sort.Ints(vals)
	in := make([]kset.Value, n)
	for i, v := range vals {
		in[i] = kset.Value(v)
	}
	return in
}

// uniqueValues draws distinct seeded max_configs tags, which give every
// request its own digest.
type uniqueValues struct {
	rng  *rand.Rand
	lo   int
	span int
	seen map[int]bool
}

func newUniqueValues(rng *rand.Rand, lo, span int) *uniqueValues {
	return &uniqueValues{rng: rng, lo: lo, span: span, seen: map[int]bool{}}
}

func (u *uniqueValues) next() int {
	for {
		v := u.lo + u.rng.Intn(u.span)
		if !u.seen[v] {
			u.seen[v] = true
			return v
		}
	}
}

// newShapeSearcher builds the Searcher of a shape with the workload's
// engine settings (workers, store, packed) over the shape's reductions.
func newShapeSearcher(sh searchShape, workers int, store, packed string) (*kset.Searcher, error) {
	o := sh.opts
	o.Workers, o.Store, o.Packed = workers, store, packed
	return kset.NewSearcher(o)
}

// shapeRequest builds the search request of a shape with uniform value v.
func shapeRequest(sh searchShape, v kset.Value) (kset.SearchRequest, error) {
	alg, err := kset.NewAlgorithm(sh.alg, sh.f)
	if err != nil {
		return kset.SearchRequest{}, err
	}
	return kset.SearchRequest{
		Alg:         alg,
		Inputs:      uniformInputs(sh.n, v),
		Live:        allLive(sh.n),
		CrashBudget: sh.budget,
		MaxConfigs:  sh.maxConfigs,
	}, nil
}

// checkSearch compares a FindConsensusFailure outcome with the table.
func checkSearch(sh searchShape, w *explore.Witness, found bool, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %v", sh.name, err)
	}
	if w == nil {
		return fmt.Errorf("%s: nil witness", sh.name)
	}
	if found != sh.found || w.Kind != sh.kind || w.Stats.Visited != sh.visited || w.Stats.Truncated != sh.truncated {
		return fmt.Errorf("%s: got found=%t kind=%s visited=%d truncated=%t, want found=%t kind=%s visited=%d truncated=%t",
			sh.name, found, w.Kind, w.Stats.Visited, w.Stats.Truncated, sh.found, sh.kind, sh.visited, sh.truncated)
	}
	return nil
}

// checkRequest builds the CheckImpossibility instance of a shape.
func checkRequest(cs checkShape, inputs []kset.Value) (kset.ImpossibilityInstance, error) {
	alg, err := kset.NewAlgorithm(cs.alg, cs.f)
	if err != nil {
		return kset.ImpossibilityInstance{}, err
	}
	spec, err := kset.Theorem2Partition(cs.n, cs.f, cs.k)
	if err != nil {
		return kset.ImpossibilityInstance{}, err
	}
	return kset.ImpossibilityInstance{
		Alg:             alg,
		Inputs:          inputs,
		Spec:            spec,
		DBarCrashBudget: 1,
		MaxConfigs:      80_000,
		SearchStrategy:  cs.strategy,
	}, nil
}

// checkReport compares a CheckImpossibility report with the table.
func checkReport(cs checkShape, rep *kset.ImpossibilityReport, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %v", cs.name, err)
	}
	if !rep.Refuted || rep.Violation != cs.violation || rep.CondCStats.Visited != cs.visited || rep.CondCStats.Truncated {
		return fmt.Errorf("%s: got refuted=%t violation=%q visited=%d truncated=%t, want refuted violation=%q visited=%d",
			cs.name, rep.Refuted, rep.Violation, rep.CondCStats.Visited, rep.CondCStats.Truncated, cs.violation, cs.visited)
	}
	return nil
}
