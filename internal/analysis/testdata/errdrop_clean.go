// fixturepath: femtocr/cmd/fixture

// Clean: handled errors, explicit _ = acknowledgments, stdout printing,
// in-memory writers, and the safeio sticky-error funnel.
package fixture

import (
	"fmt"
	"io"
	"os"
	"strings"

	"femtocr/internal/safeio"
)

func ok(f *os.File, sink io.Writer) error {
	if _, err := fmt.Fprintln(f, "checked"); err != nil {
		return err
	}
	_ = f.Close()

	fmt.Println("stdout is exempt")
	fmt.Fprintln(os.Stderr, "stderr too")

	var b strings.Builder
	b.WriteString("in-memory writers never fail")
	fmt.Fprintf(&b, "%d", 7)

	w := safeio.NewWriter(sink)
	fmt.Fprintln(w, b.String())
	return w.Err()
}
