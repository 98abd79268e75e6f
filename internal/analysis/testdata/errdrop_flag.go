// fixturepath: femtocr/cmd/fixture

// Seeded violations: statement-level calls whose error result vanishes.
package fixture

import (
	"fmt"
	"os"
)

func report(f *os.File, value float64) {
	fmt.Fprintf(f, "value = %v\n", value) // want "error result of fmt.Fprintf is silently discarded"
	f.Close()                             // want "error result of File.Close is silently discarded"
}

func multi(f *os.File) (int, error) {
	return f.WriteString("x")
}

func drop(f *os.File) {
	multi(f) // want "error result of fixture.multi is silently discarded"
}
