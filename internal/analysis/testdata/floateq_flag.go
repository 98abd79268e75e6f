// fixturepath: femtocr/internal/core

// Seeded violations: exact float equality in convergence-style checks.
package fixture

func converged(prev, cur float64) bool {
	return prev == cur // want "exact floating-point == comparison"
}

func changed(a, b float32) bool {
	return a != b // want "exact floating-point != comparison"
}

func boundsMatch(value float64) bool {
	return value == 0.25 // want "exact floating-point == comparison"
}
