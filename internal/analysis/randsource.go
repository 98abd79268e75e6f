package analysis

import (
	"go/ast"
	"strings"

	"femtocr/internal/analysis/flow"
)

// rngPackage is the only package allowed to import a randomness source
// directly; every other package must draw from its split streams.
const rngPackage = "internal/rng"

// bannedRandImports are the randomness sources that must not appear outside
// internal/rng. crypto/rand is included deliberately: it is unseedable, so
// any draw from it destroys bit-reproducibility.
var bannedRandImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// wallClockAllowed lists the module-relative package prefixes where calling
// time.Now is legitimate: experiment harnesses timing wall-clock cost and
// command-line entry points. Simulation packages must model time with slot
// counters, never the host clock.
var wallClockAllowed = []string{
	"internal/experiments",
	"internal/analysis",
	"cmd/",
	"examples/",
}

// RandSource enforces the determinism funnel: all pseudo-randomness flows
// through internal/rng, and hot simulation packages never read the wall
// clock.
var RandSource = &Analyzer{
	Name: "randsource",
	Doc:  "imports of math/rand, math/rand/v2, or crypto/rand outside internal/rng; time.Now in simulation packages",
	Run:  runRandSource,
}

func runRandSource(pass *Pass) {
	rel := pass.Rel()
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if bannedRandImports[path] && rel != rngPackage {
				pass.Reportf(imp.Pos(), "import of %s outside %s breaks seeded reproducibility; draw from an rng.Stream instead", path, rngPackage)
			}
		}
	}
	if wallClockOK(rel) {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := flow.Callee(pass.Info, call); fn != nil && fn.FullName() == "time.Now" {
				pass.Reportf(call.Pos(), "time.Now in simulation package %s: model time with slot counters; wall clock is allowed only under %s", pass.Path, strings.Join(wallClockAllowed, ", "))
			}
			return true
		})
	}
}

func wallClockOK(rel string) bool {
	for _, allowed := range wallClockAllowed {
		if rel == strings.TrimSuffix(allowed, "/") || strings.HasPrefix(rel, allowed) {
			return true
		}
	}
	return false
}
