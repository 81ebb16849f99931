package service

import (
	"context"
	"fmt"

	"kset"
	"kset/internal/explore"
)

// ProgressUpdate is one report from a running job: either search progress
// (Degraded empty) or a durability degradation notice (Degraded set, the
// progress fields unset). Splitting the two keeps progress consumers from
// misreading a degradation notice as the counters jumping backward.
type ProgressUpdate struct {
	// Visited is the cumulative visited-configuration count; Level is the
	// sealed BFS level (-1 from depth-first searches).
	Visited int
	Level   int
	// Degraded, when non-empty, reports that the job's crash durability
	// degraded mid-run (checkpoint snapshots failing — see
	// explore.Options.OnSnapshotError). The verdict is unaffected; the
	// notice is surfaced on the job's status record.
	Degraded string
}

// Runner executes verification jobs. The production implementation is
// KsetRunner; handler tests substitute a mock to exercise the HTTP layer
// without running real searches.
type Runner interface {
	// Digest validates the spec and returns its content address (the
	// verdict-cache key) as 16 lowercase hex digits. An error marks the
	// spec malformed: the submit handler answers 400 with it.
	Digest(spec InstanceSpec) (string, error)
	// Run executes the job to completion, reporting periodic progress and
	// degradation notices through the callback (may be nil). A ctx
	// cancellation is not an error: Run returns ctx.Err() only when no
	// meaningful verdict exists — a cancelled search otherwise comes back
	// as a truncated, inconclusive verdict.
	Run(ctx context.Context, spec InstanceSpec, progress func(ProgressUpdate)) (*Verdict, error)
}

// KsetRunner is the production Runner: it maps InstanceSpec onto the
// kset.Searcher API. The zero value is ready to use; set CheckpointDir to
// let checkpoint-opted jobs pause resumably.
type KsetRunner struct {
	// CheckpointDir is the directory checkpoint-opted jobs pause into
	// (empty disables checkpointing regardless of the spec).
	CheckpointDir string
}

// prepared is the validated, default-filled form of a spec plus the
// Searcher and instance pieces shared by Digest and Run.
type prepared struct {
	spec   InstanceSpec
	search *kset.Searcher
	alg    kset.Algorithm
}

func (r KsetRunner) prepare(spec InstanceSpec) (*prepared, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	search, err := kset.NewSearcher(spec.options(r.CheckpointDir))
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	alg, err := kset.NewAlgorithm(spec.Alg, spec.F)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	return &prepared{spec: spec, search: search, alg: alg}, nil
}

// instance builds the impossibility goal's engine instance. The Searcher
// stamps the search knobs; only per-instance fields are set here.
func (p *prepared) instance() (kset.ImpossibilityInstance, error) {
	var spec kset.PartitionSpec
	var err error
	if len(p.spec.Groups) > 0 {
		groups := make([][]kset.ProcessID, len(p.spec.Groups))
		for i, g := range p.spec.Groups {
			ids := make([]kset.ProcessID, len(g))
			for j, id := range g {
				ids[j] = kset.ProcessID(id)
			}
			groups[i] = ids
		}
		spec, err = kset.NewPartitionSpec(p.spec.N, p.spec.K, groups)
	} else {
		spec, err = kset.Theorem2Partition(p.spec.N, p.spec.F, p.spec.K)
	}
	if err != nil {
		return kset.ImpossibilityInstance{}, fmt.Errorf("service: %w", err)
	}
	return kset.ImpossibilityInstance{
		Alg:             p.alg,
		Inputs:          kset.DistinctInputs(p.spec.N),
		Spec:            spec,
		DBarCrashBudget: p.spec.Budget,
		MaxConfigs:      p.spec.MaxConfigs,
		SearchStrategy:  p.spec.Strategy,
	}, nil
}

// request builds the search goal's condition-(C) request over the full
// system.
func (p *prepared) request(progress func(visited, level int)) kset.SearchRequest {
	live := make([]kset.ProcessID, p.spec.N)
	for i := range live {
		live[i] = kset.ProcessID(i + 1)
	}
	return kset.SearchRequest{
		Alg:         p.alg,
		Inputs:      kset.DistinctInputs(p.spec.N),
		Live:        live,
		CrashBudget: p.spec.Budget,
		MaxConfigs:  p.spec.MaxConfigs,
		OnProgress:  progress,
	}
}

// Digest implements Runner.
func (r KsetRunner) Digest(spec InstanceSpec) (string, error) {
	p, err := r.prepare(spec)
	if err != nil {
		return "", err
	}
	switch p.spec.Goal {
	case GoalSearch:
		return fmt.Sprintf("%016x", p.search.SearchDigest(p.request(nil))), nil
	default:
		inst, err := p.instance()
		if err != nil {
			return "", err
		}
		d, err := p.search.InstanceDigest(inst)
		if err != nil {
			return "", fmt.Errorf("service: %w", err)
		}
		return fmt.Sprintf("%016x", d), nil
	}
}

// searchVerdict builds the GoalSearch verdict from a search outcome; shared
// by the single-process runner and the sharded coordinator so both produce
// identical verdicts for identical search results.
func searchVerdict(digest string, w *explore.Witness, found bool) *Verdict {
	v := &Verdict{Digest: digest, Goal: GoalSearch, Found: found}
	if w != nil {
		v.Visited = w.Stats.Visited
		v.Truncated = w.Stats.Truncated
		if found {
			v.WitnessKind = w.Kind
			v.WitnessDetail = w.Detail
			v.Summary = fmt.Sprintf("%s witness: %s", w.Kind, w.Detail)
		}
	}
	if !found {
		v.Summary = "no consensus failure found"
		if v.Truncated {
			v.Summary += " (truncated)"
		}
	}
	return v
}

// progressFuncs splits a ProgressUpdate callback into the two lower-level
// callbacks the search engines expose: periodic (visited, level) progress
// and the once-per-search snapshot-failure notice.
func progressFuncs(progress func(ProgressUpdate)) (onProgress func(visited, level int), onSnapErr func(error)) {
	if progress == nil {
		return nil, nil
	}
	onProgress = func(visited, level int) {
		progress(ProgressUpdate{Visited: visited, Level: level})
	}
	onSnapErr = func(err error) {
		progress(ProgressUpdate{Degraded: fmt.Sprintf("checkpoint snapshots failing: %v", err)})
	}
	return onProgress, onSnapErr
}

// Run implements Runner.
func (r KsetRunner) Run(ctx context.Context, spec InstanceSpec, progress func(ProgressUpdate)) (*Verdict, error) {
	p, err := r.prepare(spec)
	if err != nil {
		return nil, err
	}
	digest, err := r.Digest(spec)
	if err != nil {
		return nil, err
	}
	onProgress, onSnapErr := progressFuncs(progress)
	switch p.spec.Goal {
	case GoalSearch:
		req := p.request(onProgress)
		req.OnSnapshotError = onSnapErr
		w, found, err := p.search.FindConsensusFailure(ctx, req)
		if err != nil {
			return nil, fmt.Errorf("service: search: %w", err)
		}
		return searchVerdict(digest, w, found), nil
	default:
		inst, err := p.instance()
		if err != nil {
			return nil, err
		}
		inst.OnSearchProgress = onProgress
		inst.OnSnapshotError = onSnapErr
		rep, err := p.search.CheckImpossibility(ctx, inst)
		if err != nil {
			return nil, fmt.Errorf("service: engine: %w", err)
		}
		v := &Verdict{
			Digest:            digest,
			Goal:              GoalImpossibility,
			Summary:           rep.Summary(),
			Refuted:           rep.Refuted,
			Violation:         rep.Violation,
			CondA:             rep.CondA.String(),
			CondB:             rep.CondB.String(),
			CondC:             rep.CondC.String(),
			CondD:             rep.CondD.String(),
			DistinctDecisions: len(rep.DistinctDecided),
			Visited:           rep.CondCStats.Visited,
			Truncated:         rep.CondCStats.Truncated,
		}
		if rep.DBarWitness != nil && rep.DBarWitness.Run != nil {
			v.WitnessKind = rep.DBarWitness.Kind
			v.WitnessDetail = rep.DBarWitness.Detail
		}
		return v, nil
	}
}
