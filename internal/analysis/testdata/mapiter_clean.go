// fixturepath: femtocr/internal/core

// Clean: the canonical collect-then-sort pattern, order-independent
// accumulation, and a per-iteration buffer are all deterministic.
package fixture

import (
	"sort"
	"strings"
)

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func total(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}

func labels(m map[string]int) []string {
	var out []string
	for k := range m {
		var b strings.Builder
		b.WriteString(k)
		b.WriteString("!")
		out = append(out, b.String())
	}
	sort.Strings(out)
	return out
}
