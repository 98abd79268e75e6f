package cliflag

import (
	"flag"
	"io"
	"testing"
)

func TestCheck(t *testing.T) {
	parse := func(args ...string) *flag.FlagSet {
		t.Helper()
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Bool("quick", false, "")
		fs.Int("runs", 10, "")
		fs.Int("gops", 20, "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	quick := Rule{true, "-quick", []string{"runs", "gops"}}
	for _, tc := range []struct {
		args  []string
		rules []Rule
		want  string // "" for no error
	}{
		{[]string{"-runs", "5"}, nil, ""},
		{[]string{"-quick"}, []Rule{quick}, ""},
		{[]string{"-quick", "-runs", "5"}, []Rule{{false, "-quick", quick.Ignored}}, ""},
		{[]string{"-quick", "-runs", "5"}, []Rule{quick}, "-runs cannot be used with -quick"},
		// Setting a flag to its default value still counts as setting it.
		{[]string{"-gops", "20"}, []Rule{quick}, "-gops cannot be used with -quick"},
		// Lexical order within a rule, rule order across rules.
		{[]string{"-runs", "5", "-gops", "3"}, []Rule{quick}, "-gops cannot be used with -quick"},
		{[]string{"-runs", "5", "-quick"}, []Rule{{true, "A", []string{"runs"}}, {true, "B", []string{"quick"}}},
			"-runs cannot be used with A"},
	} {
		err := Check(parse(tc.args...), tc.rules...)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: err = %v, want nil", tc.args, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}
