package kset

import (
	"context"
	"testing"

	"kset/internal/algorithms"
	"kset/internal/core"
)

// This file holds one benchmark per experiment of EXPERIMENTS.md (the
// reproduction analogue of "one bench per paper table/figure"), plus
// benchmarks for the central engine operations. Micro-benchmarks of the
// substrates live next to their packages (internal/sim, internal/graph,
// internal/fd, internal/explore).

// BenchmarkE1Theorem2Border regenerates the Theorem 2 border sweep.
func BenchmarkE1Theorem2Border(b *testing.B) {
	p := E1Params{MinN: 4, MaxN: 5, MaxConfigs: 60000}
	for i := 0; i < b.N; i++ {
		if _, err := ExperimentTheorem2Border(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2InitialCrashPossibility regenerates the Theorem 8 possibility
// sweep.
func BenchmarkE2InitialCrashPossibility(b *testing.B) {
	p := DefaultE2Params()
	for i := 0; i < b.N; i++ {
		if _, err := ExperimentInitialCrashPossibility(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3BorderImpossibility regenerates the kn = (k+1)f border table.
func BenchmarkE3BorderImpossibility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ExperimentBorderImpossibility(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4SourceComponents regenerates the Lemma 6/7 table.
func BenchmarkE4SourceComponents(b *testing.B) {
	p := E4Params{Sizes: []int{16, 64}, Trials: 5, Seed: 4}
	for i := 0; i < b.N; i++ {
		if _, err := ExperimentSourceComponents(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5FailureDetectorBorder regenerates the Theorem 10 / Corollary
// 13 table.
func BenchmarkE5FailureDetectorBorder(b *testing.B) {
	p := E5Params{MinN: 5, MaxN: 5, MaxConfigs: 80000}
	for i := 0; i < b.N; i++ {
		if _, err := ExperimentFailureDetectorBorder(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6BivalenceSearch regenerates the valence table.
func BenchmarkE6BivalenceSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ExperimentBivalence(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7PartitionHistoryValidity regenerates the Lemma 9 table.
func BenchmarkE7PartitionHistoryValidity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ExperimentPartitionHistoryValidity(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8TIndependence regenerates the T-independence table.
func BenchmarkE8TIndependence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ExperimentTIndependence(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9CandidateVetting regenerates the vetting table.
func BenchmarkE9CandidateVetting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ExperimentCandidateVetting(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10RuntimeAblation regenerates the kernel-vs-goroutine table.
func BenchmarkE10RuntimeAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ExperimentRuntimeAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11RoundModel regenerates the Heard-Of round-model table.
func BenchmarkE11RoundModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ExperimentRoundModel(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12SynchronyLadder regenerates the model-dimension sweep.
func BenchmarkE12SynchronyLadder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ExperimentSynchronyLadder(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Engine-centric ablation benchmarks ---

// BenchmarkEngineTheorem2MinWait times one full Theorem 1 pipeline run in
// the Theorem 2 setting (solo runs + DFS subsystem search + pasting +
// indistinguishability checks).
func BenchmarkEngineTheorem2MinWait(b *testing.B) {
	spec, err := core.Theorem2Partition(5, 3, 2)
	if err != nil {
		b.Fatal(err)
	}
	inputs := DistinctInputs(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.CheckImpossibility(core.Instance{
			Alg:             algorithms.MinWait{F: 3},
			Inputs:          inputs,
			Spec:            spec,
			DBarCrashBudget: 1,
			MaxConfigs:      60000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Refuted {
			b.Fatal("not refuted")
		}
	}
}

// BenchmarkEngineTheorem10QuorumMin times the full Theorem 10 construction
// with partition failure detectors.
func BenchmarkEngineTheorem10QuorumMin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, _, err := newSearcher(b, Options{}).Theorem10Construction(context.Background(), 5, 2, 80000)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Refuted {
			b.Fatal("not refuted")
		}
	}
}

// BenchmarkSymmetryConsensusFailure times the facade-level condition-(C)
// search (Searcher.FindConsensusFailure: exhaustive disagreement + blocking
// search) on the uniform-input Theorem 2 instance with Options.Symmetry off
// and on — the EngineTheorem2MinWait-class workload where orbit reduction
// pays off.
func BenchmarkSymmetryConsensusFailure(b *testing.B) {
	inputs := []Value{0, 0, 0, 0}
	live := []ProcessID{1, 2, 3, 4}
	run := func(b *testing.B, symmetry bool) {
		s, err := NewSearcher(Options{Symmetry: symmetry})
		if err != nil {
			b.Fatal(err)
		}
		req := SearchRequest{Alg: NewMinWait(1), Inputs: inputs, Live: live, CrashBudget: 1, MaxConfigs: 200000}
		for i := 0; i < b.N; i++ {
			_, found, err := s.FindConsensusFailure(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			if found {
				b.Fatal("uniform inputs cannot produce a consensus failure for MinWait{F:1}")
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkSimulateFLPKSet times a plain possibility-side run (the protocol
// a downstream user would call).
func BenchmarkSimulateFLPKSet(b *testing.B) {
	inputs := DistinctInputs(8)
	for i := 0; i < b.N; i++ {
		run, err := Simulate(NewFLPKSet(3), inputs, SimOptions{InitialDead: []ProcessID{2, 7}})
		if err != nil {
			b.Fatal(err)
		}
		if len(run.Blocked) != 0 {
			b.Fatal("blocked")
		}
	}
}

// BenchmarkMergedBorderRun times the Lemma 12-style pasting of solo runs.
func BenchmarkMergedBorderRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := MergedBorderRun(6, 4, 2)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Distinct) != 3 {
			b.Fatal("unexpected decision count")
		}
	}
}
