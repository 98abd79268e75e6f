// fixturepath: femtocr/internal/core

// Seeded violations: map iteration leaking randomized order into a result
// slice and into output.
package fixture

import "fmt"

func collectKeys(m map[int]string) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k) // want "append to keys inside map iteration without a subsequent deterministic sort"
	}
	return keys
}

func printAll(m map[int]string) {
	for k, v := range m {
		fmt.Println(k, v) // want "writes output in randomized map order"
	}
}
