// fixturepath: femtocr/internal/sim

// Seeded violations: a simulation package importing a raw randomness source
// and reading the wall clock.
package fixture

import (
	"math/rand" // want "import of math/rand outside internal/rng"
	"time"
)

func draw() float64 {
	return rand.Float64()
}

func stamp() time.Time {
	return time.Now() // want "time.Now in simulation package"
}
