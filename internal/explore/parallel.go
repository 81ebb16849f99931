package explore

// This file implements the level-synchronous parallel frontier: the
// expansion half of the breadth-first driver's parallel path
// (runBoundedParallel in bounded.go) and of the parallel valence analysis,
// active when Options.Workers resolves to more than one.
//
// Each BFS level is processed in two phases.
//
//  1. Expansion (parallel). Workers claim frontier positions from an atomic
//     counter and expand them with their own searchCtx — private clone free
//     list, delivery scratch, action buffer, quiescence probe — so the hot
//     clone/step/hash cycle runs without shared mutable state. Candidates
//     whose fingerprint key was sealed in an earlier level are dropped
//     against the visited set, which is immutable while workers run and
//     therefore read lock-free. Surviving candidates enter a 64-way sharded
//     claim table keyed by fingerprint: per-shard mutexes arbitrate
//     concurrent claims, and a claim is replaced when a candidate with a
//     smaller deterministic order (parent position, action index) arrives,
//     so each key's surviving candidate is the one the serial loop would
//     have kept — independent of goroutine interleaving. Losers are recycled
//     into the claiming worker's free list immediately.
//
//  2. Merge (sequential). The claim-table winners are drained, sorted by
//     their deterministic order, and sealed into the visited set in exactly
//     the order the serial loop would have inserted them, emitting the next
//     frontier and the level's generation records in identical order. Goal
//     hits short-circuit the merge at the first winner in order, and
//     Stats.Visited is reconstructed from the winner's parent position, so
//     witness, replayed run, stats, and truncation behaviour are all
//     bit-identical to the serial search's. The differential tests assert
//     exactly this.
//
// The only intentional divergence is wasted speculative work: the parallel
// search expands a whole level before applying the goal/budget/stop gates
// that the serial loop applies per dequeued parent, so a level's tail may be
// explored and discarded. Results are unaffected.

import (
	"sort"
	"sync"
	"sync/atomic"

	"kset/internal/sim"
)

// ordShift packs a candidate's deterministic order as
// parentPosition<<ordShift | actionIndex. A parent's action enumeration is
// far smaller than 2^20 entries, and level positions stay far below 2^44.
const ordShift = 20

// candidate is one successor configuration produced during level expansion,
// carrying everything the merge phase needs to finish the serial search's
// bookkeeping for it.
type candidate struct {
	cfg     *sim.Configuration
	key     uint64
	ord     uint64
	crashes int32
	act     action
	goalOK  bool
	detail  string
}

// claimShards is the number of claim-table shards. Fingerprint keys are
// splitmix64-diffused, so the low bits index uniformly.
const claimShards = 64

// claimShard holds the pending within-level claims whose keys fall into the
// shard, guarded by the shard mutex.
type claimShard struct {
	mu sync.Mutex
	m  map[uint64]candidate
}

// claimTable is the sharded within-level claim table. Claims are written
// concurrently during expansion and drained sequentially during the merge.
type claimTable struct {
	shards [claimShards]claimShard
}

func newClaimTable() *claimTable {
	ct := &claimTable{}
	for i := range ct.shards {
		ct.shards[i].m = make(map[uint64]candidate, 64)
	}
	return ct
}

// claim records cand as the pending winner for its key unless a
// smaller-order candidate already holds the slot. It returns the
// configuration the caller should recycle: cand's own on loss, the evicted
// claimant's on replacement, nil when cand took an empty slot. Candidates
// for one key are behaviourally identical configurations (equal fingerprint
// keys), so replacement only re-parents the record — goal results carry
// over.
func (ct *claimTable) claim(cand candidate) *sim.Configuration {
	s := &ct.shards[cand.key%claimShards]
	s.mu.Lock()
	prev, ok := s.m[cand.key]
	if !ok || cand.ord < prev.ord {
		s.m[cand.key] = cand
		s.mu.Unlock()
		if !ok {
			return nil
		}
		return prev.cfg
	}
	s.mu.Unlock()
	return cand.cfg
}

// take drains every pending claim into buf (reused across levels) sorted by
// deterministic order — the exact insertion order of the serial loop.
func (ct *claimTable) take(buf []candidate) []candidate {
	buf = buf[:0]
	for i := range ct.shards {
		for _, c := range ct.shards[i].m {
			buf = append(buf, c)
		}
		clear(ct.shards[i].m)
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i].ord < buf[j].ord })
	return buf
}

// workerCtxs returns n search contexts for one parallel search. The first is
// the explorer's own, so its free list keeps warming across consecutive
// searches on the same Explorer, exactly as in the serial path.
func (e *Explorer) workerCtxs(n int) []*searchCtx {
	ws := make([]*searchCtx, n)
	ws[0] = &e.sc
	for i := 1; i < n; i++ {
		ws[i] = &searchCtx{e: e}
	}
	return ws
}

// expandLevel expands frontier[lo:hi] across the worker contexts, leaving
// the deterministic winners in the claim table. Candidate order keys use the
// absolute frontier position, so expanding a level in several chunks (the
// bounded engine resumes mid-level after a checkpoint) yields the same
// winners as one pass. vis is the sealed visited set — immutable while
// workers run, hence read lock-free. goal, when non-nil, is evaluated on
// every candidate that survives the sealed-visited check, in parallel, so
// the merge only inspects the precomputed flag.
func (e *Explorer) expandLevel(ws []*searchCtx, frontier []qent, lo, hi int, vis *visitedSet, ct *claimTable, goal goalFunc) {
	workers := len(ws)
	if workers > hi-lo {
		workers = hi - lo
	}
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(sc *searchCtx) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= hi {
					return
				}
				parent := frontier[i]
				for ai, act := range sc.actions(parent.cfg, int(parent.crashes)) {
					cfg, ok := sc.apply(parent.cfg, act)
					if !ok {
						continue
					}
					crashes := parent.crashes
					if act.Crash {
						crashes++
					}
					cand := candidate{
						cfg:     cfg,
						key:     sc.e.key(cfg, int(crashes)),
						ord:     uint64(i)<<ordShift | uint64(ai),
						crashes: crashes,
						act:     act,
					}
					if vis.Contains(cand.key) {
						sc.release(cfg)
						continue
					}
					if goal != nil {
						cand.detail, cand.goalOK = goal(sc, cfg)
					}
					if dup := ct.claim(cand); dup != nil {
						sc.release(dup)
					}
				}
			}
		}(ws[w])
	}
	wg.Wait()
}

// releaseLevel recycles the expanded parents frontier[lo:hi] across the
// worker free lists, skipping keep (the caller-owned start configuration of
// a valence search).
func releaseLevel(ws []*searchCtx, frontier []qent, lo, hi int, keep *sim.Configuration) {
	for i := lo; i < hi; i++ {
		if frontier[i].cfg != keep {
			ws[i%len(ws)].release(frontier[i].cfg)
		}
	}
}

// valenceFromParallel is the parallel frontier twin of the sequential
// valenceFrom, emulating its per-parent stop and budget gates during the
// merge so that the returned values and stats match the sequential
// computation exactly — including early stops, where the level's remaining
// speculative work is discarded just like the sequential search abandons its
// queue.
func (e *Explorer) valenceFromParallel(start *sim.Configuration, crashesSpent, stopAt int) ([]sim.Value, Stats, error) {
	seenVals := map[sim.Value]bool{}
	collectDecisions(seenVals, start)
	stats := Stats{}
	// Valence only censuses decision values — no witness path is ever
	// reconstructed — so revisit detection needs the compact visited set
	// alone; no level records are kept whatever the store mode.
	vis := newVisitedSet()
	vis.Insert(e.key(start, crashesSpent))
	ws := e.workerCtxs(e.searchWorkers())
	ct := newClaimTable()
	frontier := []qent{{cfg: start, crashes: int32(crashesSpent)}}
	var winners []candidate
	stopped := false
	for len(frontier) > 0 && !stopped {
		e.expandLevel(ws, frontier, 0, len(frontier), vis, ct, nil)
		winners = ct.take(winners)

		// Serial-gate emulation: dequeue the level's parents in order,
		// re-checking the stop and budget gates before each, and fold in the
		// decisions of each parent's fresh children as they are sealed.
		pos := -1 // highest parent position dequeued so far
		dequeueThrough := func(target int) bool {
			for pos < target {
				if stopAt > 0 && len(seenVals) >= stopAt {
					return false
				}
				if stats.Visited >= e.opts.MaxConfigs {
					stats.Truncated = true
					return false
				}
				pos++
				stats.Visited++
			}
			return true
		}
		nextFrontier := make([]qent, 0, len(winners))
		for _, w := range winners {
			if !dequeueThrough(int(w.ord >> ordShift)) {
				stopped = true
				break
			}
			if !vis.Insert(w.key) {
				ws[0].release(w.cfg) // unreachable, as in runBoundedParallel
				continue
			}
			collectDecisions(seenVals, w.cfg)
			nextFrontier = append(nextFrontier, qent{cfg: w.cfg, crashes: w.crashes})
		}
		if !stopped && !dequeueThrough(len(frontier)-1) {
			stopped = true
		}
		releaseLevel(ws, frontier, 0, len(frontier), start)
		frontier = nextFrontier
	}
	vals := make([]sim.Value, 0, len(seenVals))
	for v := range seenVals {
		vals = append(vals, v)
	}
	sortValues(vals)
	return vals, stats, nil
}
