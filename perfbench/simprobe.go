package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"kset"
	"kset/internal/sim"
)

// The sim probe times the configuration engine's two hot operations through
// the public sim API, on configurations a seeded random walk of the
// workload's instances reaches: ApplyQuiet (one step) and CloneInto (the
// per-successor copy), for the packed and the pointer engine. It runs only
// in the traced pass.

// simTarget is an instance the probe walks.
type simTarget struct {
	alg    kset.Algorithm
	inputs []kset.Value
}

type engineStats struct {
	stepNs, cloneNs, cloneBytes float64
	configs                     int
}

type simResult map[string]engineStats

const (
	simConfigs  = 512 // walk configurations per engine, over all targets
	simWalkLen  = 48  // steps before a walk restarts from the initial configuration
	simReps     = 200 // timed passes over the configurations
	simCloneSet = 64  // configurations whose Clone allocation is counted
)

var simSink *sim.Configuration

func simProbe(targets []simTarget, seed int64) (simResult, error) {
	res := simResult{}
	for _, eng := range []string{"packed", "pointer"} {
		cfgs, reqs, err := simWalk(eng, targets, rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, err
		}
		res[eng] = timeEngine(cfgs, reqs)
	}
	return res, nil
}

func initialConfig(eng string, t simTarget) (*sim.Configuration, error) {
	if eng == "pointer" {
		return sim.NewConfiguration(t.alg, t.inputs), nil
	}
	c, ok := sim.NewPackedConfiguration(t.alg, t.inputs)
	if !ok {
		return nil, fmt.Errorf("%s has no packed encoding", t.alg.Name())
	}
	return c, nil
}

// simWalk collects (configuration, step) pairs along seeded random walks:
// each step picks a live process and delivers none, the oldest, or all of
// its pending messages.
func simWalk(eng string, targets []simTarget, rng *rand.Rand) ([]*sim.Configuration, []sim.StepRequest, error) {
	var cfgs []*sim.Configuration
	var reqs []sim.StepRequest
	per := simConfigs / len(targets)
	for _, t := range targets {
		start, err := initialConfig(eng, t)
		if err != nil {
			return nil, nil, err
		}
		c, steps, got := start, 0, 0
		for got < per {
			if steps == simWalkLen || c.AllDecided(c.ProcessIDs()) {
				c, steps = start, 0
			}
			p := kset.ProcessID(1 + rng.Intn(c.N()))
			req := sim.StepRequest{Proc: p}
			switch ids := c.DeliverAll(p); {
			case len(ids) == 0:
			case rng.Intn(2) == 0:
				req.Deliver = ids[:1]
			default:
				req.Deliver = ids
			}
			next := c.Clone()
			if err := next.ApplyQuiet(req); err != nil {
				return nil, nil, fmt.Errorf("walk step: %w", err)
			}
			cfgs = append(cfgs, c)
			reqs = append(reqs, req)
			c, steps, got = next, steps+1, got+1
		}
	}
	return cfgs, reqs, nil
}

func timeEngine(cfgs []*sim.Configuration, reqs []sim.StepRequest) engineStats {
	copies := make([]*sim.Configuration, len(cfgs))
	var step, clone time.Duration
	for r := 0; r < simReps; r++ {
		for i, c := range cfgs {
			copies[i] = c.CloneInto(copies[i])
		}
		start := time.Now()
		for i := range copies {
			_ = copies[i].ApplyQuiet(reqs[i]) // the walk already applied each step once
		}
		step += time.Since(start)
		start = time.Now()
		for i, c := range cfgs {
			copies[i] = c.CloneInto(copies[i])
		}
		clone += time.Since(start)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := min(simCloneSet, len(cfgs))
	for _, c := range cfgs[:n] {
		simSink = c.Clone()
	}
	runtime.ReadMemStats(&after)
	ops := float64(simReps * len(cfgs))
	return engineStats{
		stepNs:     float64(step.Nanoseconds()) / ops,
		cloneNs:    float64(clone.Nanoseconds()) / ops,
		cloneBytes: float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		configs:    len(cfgs),
	}
}
