// Detectors: the failure-detector side of the paper (Section VII).
//
// Part 1 solves consensus with the pair (Sigma, Omega) — the k = 1
// endpoint of Corollary 13 — under crashes and message delays.
//
// Part 2 runs the Theorem 10 construction for 2 <= k <= n-2: partition
// detector histories let k partitions decide independently, and the
// reduction engine assembles the full violation run for the Sigma_k-based
// candidate algorithm, showing (Sigma_k, Omega_k) too weak for k-set
// agreement in that range.
//
// Run with:
//
//	go run ./examples/detectors
package main

import (
	"context"
	"fmt"
	"log"

	"kset"
)

func main() {
	part1()
	part2()
}

func part1() {
	const n = 5
	fmt.Println("--- consensus from (Sigma, Omega), one mid-run crash ---")
	run, err := kset.Simulate(kset.NewSigmaOmega(), kset.DistinctInputs(n), kset.SimOptions{
		CrashAtTime: map[kset.ProcessID]int{3: 7},
		Detector:    kset.DetectorSpec{Kind: "sigma-omega", K: 1, GST: 10},
	})
	if err != nil {
		log.Fatalf("simulation: %v", err)
	}
	fmt.Printf("decisions: %v, blocked: %v\n", run.DistinctDecisions(), run.Blocked)
	if d := len(run.DistinctDecisions()); d != 1 {
		log.Fatalf("expected consensus, got %d values", d)
	}
	fmt.Println("uniform consensus reached despite the crash.")
	fmt.Println()
}

func part2() {
	const (
		n = 6
		k = 3 // 2 <= k <= n-2: the impossible band of Corollary 13
	)
	fmt.Printf("--- Theorem 10 construction: n=%d, k=%d with (Sigma'_%d, Omega'_%d) ---\n", n, k, k, k)
	search, err := kset.NewSearcher(kset.Options{})
	if err != nil {
		log.Fatalf("searcher: %v", err)
	}
	rep, merged, err := search.Theorem10Construction(context.Background(), n, k, 80000)
	if err != nil {
		log.Fatalf("construction: %v", err)
	}
	fmt.Println(rep.Summary())
	if merged != nil {
		fmt.Printf("Lemma 12 merged run: %d distinct decisions across %d partitions (indistinguishable from solo runs: %t)\n",
			len(merged.Distinct), k, merged.IndistinguishableOK)
	}
	if rep.Refuted {
		fmt.Printf("violation run: decisions %v (> k = %d) — (Sigma_k, Omega_k) is too weak here,\n", rep.DistinctDecided, k)
		fmt.Println("matching Corollary 13: solvable iff k = 1 or k = n-1.")
	}
}
