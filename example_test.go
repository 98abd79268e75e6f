package femtocr_test

import (
	"fmt"

	"femtocr"
)

// Build the paper's single-FBS scenario and stream twenty GOPs under the
// proposed allocation, checking the primary-user protection held.
func Example() {
	cfg := femtocr.DefaultConfig()
	net, err := femtocr.NewNetwork(cfg, femtocr.PaperSingleSpec())
	if err != nil {
		panic(err)
	}
	res, err := femtocr.Simulate(net, femtocr.SimOptions{Seed: 42, GOPs: 20})
	if err != nil {
		panic(err)
	}
	fmt.Printf("users: %d, GOPs: %d\n", net.K(), res.GOPs)
	fmt.Printf("quality above base layer: %v\n", res.MeanPSNR > 29)
	fmt.Printf("collision rate within 2x gamma: %v\n", res.CollisionRate < 2*cfg.Gamma)
	// Output:
	// users: 3, GOPs: 20
	// quality above base layer: true
	// collision rate within 2x gamma: true
}

// Compare the three schemes of the paper's evaluation on one seed.
func Example_schemes() {
	net, err := femtocr.NewNetwork(femtocr.DefaultConfig(), femtocr.PaperSingleSpec())
	if err != nil {
		panic(err)
	}
	type row struct {
		name string
		sch  femtocr.Scheme
	}
	rows := []row{
		{"Proposed", femtocr.Proposed},
		{"Heuristic 1", femtocr.Heuristic1},
		{"Heuristic 2", femtocr.Heuristic2},
	}
	var best string
	bestPSNR := 0.0
	for _, r := range rows {
		res, err := femtocr.Simulate(net, femtocr.SimOptions{Seed: 7, GOPs: 20, Scheme: r.sch})
		if err != nil {
			panic(err)
		}
		if res.MeanPSNR > bestPSNR {
			bestPSNR = res.MeanPSNR
			best = r.name
		}
	}
	fmt.Printf("best scheme: %s\n", best)
	// Output:
	// best scheme: Proposed
}
