// Package cliflag rejects command-line flags that the chosen path of a
// command would ignore, so a set flag is an error rather than a silent
// no-op. A command states its paths as Rules and calls Check once, right
// after parsing.
package cliflag

import (
	"flag"
	"fmt"
	"slices"
)

// A Rule names the flags a path ignores. It applies only when When holds.
type Rule struct {
	When    bool
	Path    string   // the path as the error names it, e.g. "-quick"
	Ignored []string // flag names, without the dash
}

// Check returns "-X cannot be used with PATH" for the first applying rule
// whose Ignored lists a flag X set on fs's command line (whatever its
// value); within a rule, flags are visited in lexical order.
func Check(fs *flag.FlagSet, rules ...Rule) error {
	for _, r := range rules {
		if !r.When {
			continue
		}
		var err error
		fs.Visit(func(f *flag.Flag) {
			if err == nil && slices.Contains(r.Ignored, f.Name) {
				err = fmt.Errorf("-%s cannot be used with %s", f.Name, r.Path)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
