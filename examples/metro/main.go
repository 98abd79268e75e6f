// Metro: generate a city-scale femtocell deployment, decompose its
// interference graph into independent shards, and run the sharded engine,
// one task per shard. The fold is bitwise-deterministic for any Workers
// setting, and the per-task ns accounting shows the speedup a parallel
// machine would reach even when this one is CPU-starved.
package main

import (
	"fmt"
	"log"

	"femtocr"
)

func main() {
	cfg := femtocr.DefaultConfig()

	// 400 femtocells scattered over an auto-sized urban area (~0.72 km²),
	// two generated MGS streams per cell.
	net, err := femtocr.NewNetwork(cfg, femtocr.MetroPoissonSpec(400, 2))
	if err != nil {
		log.Fatal(err)
	}

	res, err := femtocr.SimulateSharded(net, femtocr.SimOptions{
		Seed: 1, GOPs: 2,
		Parallel: femtocr.Parallelism{Workers: 0}, // one worker per CPU
	})
	if err != nil {
		log.Fatal(err)
	}

	largest := 0
	for _, s := range res.PerShard {
		if s.FBSs > largest {
			largest = s.FBSs
		}
	}
	fmt.Printf("metro: %d FBSs, %d users, %d interference shards (largest: %d FBSs)\n",
		res.FBSs, res.Users, res.Shards, largest)
	fmt.Printf("mean Y-PSNR %.2f dB | worst user %.2f dB | fairness %.3f\n",
		res.MeanPSNR, res.MinUserPSNR, res.FairnessIndex)
	fmt.Printf("per-user PSNR: mean %.2f  stddev %.2f  over %d users\n",
		res.PSNR.Mean, res.PSNR.StdDev, res.PSNR.N)
	if t := res.Timing; t != nil {
		fmt.Printf("work: %d tasks, %.1f ms serialized, ideal speedup %.2fx\n",
			res.Shards, float64(t.SumTaskNS)/1e6, t.IdealSpeedup())
	}

	// The same run with a different schedule folds to the identical result.
	again, err := femtocr.SimulateSharded(net, femtocr.SimOptions{
		Seed: 1, GOPs: 2,
		Parallel: femtocr.Parallelism{Workers: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	identical := again.MeanPSNR == res.MeanPSNR //femtovet:ignore floateq -- the sharded fold guarantees bitwise determinism; exact is the claim
	fmt.Printf("re-run with Workers=1: mean identical: %v\n", identical)
}
