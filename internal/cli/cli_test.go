package cli

import (
	"flag"
	"fmt"
	"strings"
	"testing"
)

func testApp(out *strings.Builder) (*App, *int, *string) {
	var gotN int
	var gotS string
	a := &App{Name: "pcs", Summary: "test app", EnvPrefix: "PCSTEST", Output: out}
	a.Register(&Command{
		Name:    "go",
		Summary: "run the thing",
		Usage:   "[-n N] [-s str]",
		SetFlags: func(fs *flag.FlagSet) {
			fs.IntVar(&gotN, "n", 1, "a number")
			fs.StringVar(&gotS, "s", "", "a string")
		},
		Run: func(fs *flag.FlagSet) error { return nil },
	})
	a.Register(&Command{
		Name:    "fail",
		Summary: "always errors",
		Run:     func(fs *flag.FlagSet) error { return fmt.Errorf("boom") },
	})
	return a, &gotN, &gotS
}

func TestDispatchAndExitCodes(t *testing.T) {
	var out strings.Builder
	a, n, _ := testApp(&out)
	if code := a.Run([]string{"go", "-n", "7"}); code != 0 {
		t.Fatalf("exit %d: %s", code, out.String())
	}
	if *n != 7 {
		t.Fatalf("n = %d", *n)
	}
	if code := a.Run([]string{"fail"}); code != 1 {
		t.Fatalf("fail exit %d", code)
	}
	if !strings.Contains(out.String(), "pcs fail: boom") {
		t.Fatalf("error not reported: %q", out.String())
	}
	if code := a.Run([]string{"nope"}); code != 2 {
		t.Fatalf("unknown exit %d", code)
	}
	if code := a.Run(nil); code != 2 {
		t.Fatalf("no-args exit %d", code)
	}
	if code := a.Run([]string{"go", "-bogus"}); code != 2 {
		t.Fatalf("bad-flag exit %d", code)
	}
	a.Register(&Command{Name: "usage", Run: func(*flag.FlagSet) error { return fmt.Errorf("action: %w", ErrUsage) }})
	out.Reset()
	if code := a.Run([]string{"usage"}); code != 2 || out.Len() != 0 {
		t.Fatalf("usage-error exit %d, output %q; want 2 and nothing printed", code, out.String())
	}
}

func TestHelp(t *testing.T) {
	var out strings.Builder
	a, _, _ := testApp(&out)
	if code := a.Run([]string{"help"}); code != 0 {
		t.Fatalf("help exit %d", code)
	}
	for _, want := range []string{"run the thing", "always errors", "PCSTEST_<FLAG>"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("help missing %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code := a.Run([]string{"help", "go"}); code != 0 {
		t.Fatalf("help go exit %d", code)
	}
	for _, want := range []string{"pcs go [-n N] [-s str]", "a number"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("command help missing %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code := a.Run([]string{"go", "-h"}); code != 0 {
		t.Fatalf("-h exit %d: %s", code, out.String())
	}
}

// TestEnvDefaults checks the PCS_* convention: environment sets the
// default, an explicit flag still wins, and a malformed value fails.
func TestEnvDefaults(t *testing.T) {
	var out strings.Builder
	a, n, s := testApp(&out)
	t.Setenv("PCSTEST_N", "42")
	t.Setenv("PCSTEST_S", "from-env")
	if code := a.Run([]string{"go"}); code != 0 {
		t.Fatalf("exit %d: %s", code, out.String())
	}
	if *n != 42 || *s != "from-env" {
		t.Fatalf("env not applied: n=%d s=%q", *n, *s)
	}
	if code := a.Run([]string{"go", "-n", "3"}); code != 0 {
		t.Fatalf("exit %d: %s", code, out.String())
	}
	if *n != 3 {
		t.Fatalf("explicit flag lost to env: n=%d", *n)
	}
	t.Setenv("PCSTEST_N", "not-a-number")
	if code := a.Run([]string{"go"}); code != 2 {
		t.Fatalf("bad env exit %d", code)
	}
	if !strings.Contains(out.String(), "PCSTEST_N") {
		t.Fatalf("bad env var not named: %q", out.String())
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	a := &App{Name: "x"}
	a.Register(&Command{Name: "a"}, &Command{Name: "a"})
}
