// Designspace walks the paper's §V use-case: "a designer can decide which
// computer class offers the required flexibility with minimum configuration
// overhead for [a] set of target applications."
//
// The target set here needs (a) data-parallel kernels that an array
// processor handles and (b) task-parallel phases that need independent
// programs — so the minimum class must cover both IAP-II and IMP-II. The
// example finds that class, prices the candidates with Eq 1/Eq 2, and then
// *runs* both kernels on the chosen class's simulator to show the choice is
// sufficient.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/taxonomy"
	"repro/internal/workload"
)

func main() {
	iap2, err := core.LookupClass("IAP-II")
	if err != nil {
		log.Fatal(err)
	}
	imp2, err := core.LookupClass("IMP-II")
	if err != nil {
		log.Fatal(err)
	}
	required := []core.Class{iap2, imp2}

	const n = 16 // processors in every candidate instantiation
	best, bestEst, err := core.MinimalClassFor(taxonomy.InstructionFlow, required, n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("target applications need: %s and %s\n", iap2, imp2)
	fmt.Printf("minimum covering class:   %s (flexibility %d)\n", best, core.Flexibility(best))
	fmt.Printf("estimated cost at n=%d:   %.0f GE, %d config bits\n\n", n, bestEst.Area, bestEst.ConfigBits)

	// Price the alternatives the designer would have considered.
	fmt.Println("candidate comparison (Eq 1 / Eq 2):")
	for _, name := range []string{"IAP-II", "IMP-I", "IMP-II", "IMP-XVI", "ISP-II", "USP"} {
		cand, err := core.LookupClass(name)
		if err != nil {
			log.Fatal(err)
		}
		est, err := core.EstimateClass(name, n)
		if err != nil {
			log.Fatal(err)
		}
		covers := core.CanMorphInto(cand, iap2) && core.CanMorphInto(cand, imp2)
		fmt.Printf("  %-8s flex %d  area %9.0f GE  config %7d bits  covers both: %v\n",
			name, core.Flexibility(cand), est.Area, est.ConfigBits, covers)
	}

	// Prove sufficiency by running both workload shapes on the chosen
	// class's simulator (an IMP sub-type).
	if best.Name.Proc != taxonomy.MultiProcessor {
		log.Fatalf("expected a multi-processor cover, got %s", best)
	}
	a := seq(128, 3)
	b := seq(128, 11)
	dataParallel, err := workload.VecAdd(best, 8, a, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSPMD vector add on %s: %d cycles for %d elements\n",
		best, dataParallel.Stats.Cycles, len(a))
	taskParallel, err := workload.Dot(best, 8, a, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("message-passing dot product on %s: %d cycles, %d messages\n",
		best, taskParallel.Stats.Cycles, taskParallel.Stats.Messages)
}

func seq(n int, start isa.Word) []isa.Word {
	v := make([]isa.Word, n)
	for i := range v {
		v[i] = start + isa.Word(i)
	}
	return v
}
