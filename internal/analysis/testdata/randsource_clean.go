// fixturepath: femtocr/internal/experiments

// Clean: wall-clock timing in an experiment harness is on the allowlist,
// and randomness drawn through internal/rng is the sanctioned funnel.
package fixture

import (
	"time"

	"femtocr/internal/rng"
)

func timed(seed uint64) (float64, time.Duration) {
	start := time.Now()
	v := rng.New(seed).Float64()
	return v, time.Since(start)
}
