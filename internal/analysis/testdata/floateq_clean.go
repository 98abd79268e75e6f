// fixturepath: femtocr/internal/core

// Clean: tolerance helpers, zero-sentinel guards, integer equality, and
// compile-time constant folds are all acceptable.
package fixture

import "math"

func approxEqual(a, b float64) bool {
	if a == b { // exact fast path inside the approved helper
		return true
	}
	return math.Abs(a-b) <= 1e-9
}

func solverDone(prev, cur float64) bool {
	return approxEqual(prev, cur)
}

func unsetSentinel(rate float64) float64 {
	if rate == 0 { // zero guard: the one exactly-representable sentinel
		return 1
	}
	return rate
}

func sameCount(a, b int) bool {
	return a == b
}
