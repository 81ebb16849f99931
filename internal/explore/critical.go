package explore

import (
	"fmt"

	"kset/internal/sim"
)

// StepValence describes one adversary action available at a configuration
// together with the valence of the configuration it leads to.
type StepValence struct {
	Proc  sim.ProcessID
	Mode  DeliveryMode
	Crash bool
	// Values are the decision values reachable after taking the action.
	Values []sim.Value
	// Forcing is true when the successor configuration is univalent while
	// the current configuration is bivalent — the action is a "critical
	// step" in the FLP sense: the adversary's choice at this configuration
	// decides the outcome.
	Forcing bool
}

// CriticalAnalysis classifies every available action at the initial
// configuration by the valence of its successor. For a bivalent initial
// configuration of a consensus algorithm this exhibits the FLP Lemma 3
// shape: some single steps commit the system to one value, so the
// adversary, by choosing among them, controls the decision — and by
// stalling the pivotal process it can defer commitment.
type CriticalAnalysis struct {
	// InitialValues is the valence of the initial configuration itself.
	InitialValues []sim.Value
	// Bivalent reports len(InitialValues) >= 2.
	Bivalent bool
	// Steps lists every applicable first action with its successor valence.
	Steps []StepValence
	// Stats aggregates the exploration effort across all successor
	// valence computations.
	Stats Stats
}

// AnalyzeCriticalSteps computes the valence of the initial configuration
// and of every one-step successor. Exploration budgets apply per successor;
// a truncated successor valence is reported as-is with Stats.Truncated set
// on the aggregate.
func (e *Explorer) AnalyzeCriticalSteps() (*CriticalAnalysis, error) {
	initVals, initStats, err := e.Valence(0)
	if err != nil {
		return nil, fmt.Errorf("explore: initial valence: %w", err)
	}
	out := &CriticalAnalysis{
		InitialValues: initVals,
		Bivalent:      len(initVals) >= 2,
		Stats:         initStats,
	}

	start, err := e.initial()
	if err != nil {
		return nil, err
	}
	// actionsFull returns the explorer's reusable buffer and valenceFrom
	// enumerates actions itself below, so take a copy before recursing. The
	// unreduced enumeration is deliberate: the analysis reports a StepValence
	// per available first action, and that list must not shrink under
	// Options.POR (the successor valence computations still prune).
	acts := append([]action(nil), e.sc.actionsFull(start, 0)...)
	for _, act := range acts {
		next, ok := e.apply(start, act)
		if !ok {
			continue
		}
		vals, stats, err := e.valenceFrom(next, boolToInt(act.Crash), 0)
		e.release(next)
		if err != nil {
			return nil, fmt.Errorf("explore: successor valence: %w", err)
		}
		out.Stats.Visited += stats.Visited
		if stats.Truncated {
			out.Stats.Truncated = true
		}
		out.Steps = append(out.Steps, StepValence{
			Proc:    act.Proc,
			Mode:    act.Mode,
			Crash:   act.Crash,
			Values:  vals,
			Forcing: out.Bivalent && len(vals) == 1,
		})
	}
	return out, nil
}

// valenceFrom computes the reachable decision values from an arbitrary
// configuration (with crashes already spent), stopping early once stopAt
// distinct values are found (0 = collect every value). It shares the
// fingerprint-keyed breadth-first expansion of search; the
// caller retains ownership of start, every other visited configuration is
// recycled through the explorer's free list.
func (e *Explorer) valenceFrom(start *sim.Configuration, crashesSpent, stopAt int) ([]sim.Value, Stats, error) {
	// Valence expansion is always breadth-first, so the parallel frontier
	// applies whenever more than one worker is configured, independent of
	// Options.Strategy (which only orders witness searches).
	if e.searchWorkers() > 1 {
		return e.valenceFromParallel(start, crashesSpent, stopAt)
	}
	seenVals := map[sim.Value]bool{}
	collectDecisions(seenVals, start)
	stats := Stats{}
	// Valence only censuses decision values — no witness path is ever
	// reconstructed — so revisit detection keeps the compact visited set
	// alone (see visited.go); level records would be dead weight here.
	vis := newVisitedSet()
	vis.Insert(e.key(start, crashesSpent))
	queue := []qent{{cfg: start, crashes: int32(crashesSpent)}}
	for len(queue) > 0 {
		if stopAt > 0 && len(seenVals) >= stopAt {
			break
		}
		if stats.Visited >= e.opts.MaxConfigs {
			stats.Truncated = true
			break
		}
		cur := queue[0]
		queue = queue[1:]
		stats.Visited++
		for _, act := range e.actions(cur.cfg, int(cur.crashes)) {
			next, ok := e.apply(cur.cfg, act)
			if !ok {
				continue
			}
			crashes := cur.crashes
			if act.Crash {
				crashes++
			}
			if !vis.Insert(e.key(next, int(crashes))) {
				e.release(next)
				continue
			}
			collectDecisions(seenVals, next)
			queue = append(queue, qent{cfg: next, crashes: crashes})
		}
		if cur.cfg != start {
			e.release(cur.cfg)
		}
	}
	vals := make([]sim.Value, 0, len(seenVals))
	for v := range seenVals {
		vals = append(vals, v)
	}
	sortValues(vals)
	return vals, stats, nil
}

func sortValues(vs []sim.Value) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
