// Package cli is the subcommand framework behind the pcs binary: a
// small dispatcher over flag.FlagSet that adds the conventions every
// subcommand shares — usage/help text, PCS_* environment-variable
// defaults, and uniform error exit — without pulling in a third-party
// CLI dependency.
//
// # Environment overrides
//
// Before parsing, each registered flag looks up the variable
// <prefix>_<NAME> (flag name upper-cased, dashes to underscores; the
// pcs binary uses prefix "PCS"). A set variable becomes the flag's
// default, and an explicit command-line flag still wins because Parse
// runs after. So PCS_WORKERS=8 pcs sweep behaves like pcs sweep
// -workers 8, and pcs sweep -workers 2 overrides the environment.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// ErrUsage is what a command's Run returns after it has printed why its
// command line is malformed, as the FlagSet of an action's own flags
// does: the app exits 2, as for a bad flag of the command, and prints
// nothing more.
var ErrUsage = errors.New("cli: usage error")

// Command is one subcommand: its flag registration and its body.
type Command struct {
	// Name is the subcommand name ("sim").
	Name string
	// Summary is the one-line description shown in the command list.
	Summary string
	// Usage is the argument synopsis shown after the command name in
	// help output (e.g. "[-spec file] [-config A|B|both]").
	Usage string
	// SetFlags registers the command's flags; nil means no flags.
	SetFlags func(fs *flag.FlagSet)
	// Run executes the command after flag parsing. fs.Args() holds the
	// positional arguments.
	Run func(fs *flag.FlagSet) error
}

// App is a set of subcommands under one binary name.
type App struct {
	// Name is the binary name ("pcs").
	Name string
	// Summary is the one-line description shown at the top of help.
	Summary string
	// EnvPrefix enables <EnvPrefix>_<FLAG> environment defaults when
	// non-empty.
	EnvPrefix string
	// Version, when non-empty, enables the built-in "version"
	// subcommand (and "-version"/"--version"), which prints it.
	Version string
	// Output receives usage and error text; nil means os.Stderr.
	Output io.Writer

	commands []*Command
}

// Register adds commands to the app; duplicate names are a programming
// error.
func (a *App) Register(cmds ...*Command) {
	for _, c := range cmds {
		for _, have := range a.commands {
			if have.Name == c.Name {
				panic(fmt.Sprintf("cli: duplicate command %q", c.Name))
			}
		}
		a.commands = append(a.commands, c)
	}
}

// Lookup finds a registered command by name.
func (a *App) Lookup(name string) (*Command, bool) {
	for _, c := range a.commands {
		if c.Name == name {
			return c, true
		}
	}
	return nil, false
}

func (a *App) output() io.Writer {
	if a.Output != nil {
		return a.Output
	}
	return os.Stderr
}

// Run dispatches argv (without the binary name) to its subcommand and
// returns the process exit code.
func (a *App) Run(argv []string) int {
	w := a.output()
	if len(argv) == 0 {
		a.usage(w)
		return 2
	}
	switch argv[0] {
	case "version", "-version", "--version":
		if a.Version != "" {
			if _, explicit := a.Lookup("version"); !explicit {
				// Version is the one output users pipe and compare, so it
				// goes to stdout unless the app redirected all output.
				out := io.Writer(os.Stdout)
				if a.Output != nil {
					out = a.Output
				}
				fmt.Fprintf(out, "%s version %s\n", a.Name, a.Version)
				return 0
			}
		}
	case "help", "-h", "-help", "--help":
		if len(argv) > 1 {
			if c, ok := a.Lookup(argv[1]); ok {
				a.commandUsage(w, c)
				return 0
			}
			fmt.Fprintf(w, "%s: unknown command %q\n", a.Name, argv[1])
			return 2
		}
		a.usage(w)
		return 0
	}
	c, ok := a.Lookup(argv[0])
	if !ok {
		fmt.Fprintf(w, "%s: unknown command %q (run %q for the list)\n", a.Name, argv[0], a.Name+" help")
		return 2
	}
	fs := flag.NewFlagSet(a.Name+" "+c.Name, flag.ContinueOnError)
	fs.SetOutput(w)
	fs.Usage = func() { a.commandUsage(w, c) }
	if c.SetFlags != nil {
		c.SetFlags(fs)
	}
	if err := a.applyEnv(fs); err != nil {
		fmt.Fprintf(w, "%s %s: %v\n", a.Name, c.Name, err)
		return 2
	}
	if err := fs.Parse(argv[1:]); err != nil {
		// flag prints its own message (and help for -h).
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if err := c.Run(fs); err != nil {
		if errors.Is(err, ErrUsage) {
			return 2
		}
		fmt.Fprintf(w, "%s %s: %v\n", a.Name, c.Name, err)
		return 1
	}
	return 0
}

// EnvVar returns the environment variable that backs a flag name under
// the app's prefix ("workers" → "PCS_WORKERS").
func (a *App) EnvVar(flagName string) string {
	return a.EnvPrefix + "_" + strings.ToUpper(strings.ReplaceAll(flagName, "-", "_"))
}

// applyEnv installs environment values as flag defaults. It runs before
// Parse, so explicit command-line flags override the environment.
func (a *App) applyEnv(fs *flag.FlagSet) error {
	if a.EnvPrefix == "" {
		return nil
	}
	var err error
	fs.VisitAll(func(f *flag.Flag) {
		if err != nil {
			return
		}
		v, ok := os.LookupEnv(a.EnvVar(f.Name))
		if !ok {
			return
		}
		if serr := fs.Set(f.Name, v); serr != nil {
			err = fmt.Errorf("%s=%q: %v", a.EnvVar(f.Name), v, serr)
		}
	})
	return err
}

// usage prints the top-level command list.
func (a *App) usage(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n\n", a.Name, a.Summary)
	fmt.Fprintf(w, "Usage:\n\n\t%s <command> [flags]\n\nCommands:\n\n", a.Name)
	names := make([]string, 0, len(a.commands))
	width := 0
	for _, c := range a.commands {
		names = append(names, c.Name)
		if len(c.Name) > width {
			width = len(c.Name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		c, _ := a.Lookup(name)
		fmt.Fprintf(w, "\t%-*s  %s\n", width, c.Name, c.Summary)
	}
	fmt.Fprintf(w, "\nRun \"%s help <command>\" for a command's flags.\n", a.Name)
	if a.Version != "" {
		fmt.Fprintf(w, "Run \"%s version\" to print the build version (%s).\n", a.Name, a.Version)
	}
	if a.EnvPrefix != "" {
		fmt.Fprintf(w, "Any flag can be defaulted from the environment as %s_<FLAG> (e.g. %s).\n",
			a.EnvPrefix, a.EnvVar("workers"))
	}
}

// commandUsage prints one command's synopsis and flags.
func (a *App) commandUsage(w io.Writer, c *Command) {
	fmt.Fprintf(w, "Usage: %s %s %s\n\n%s\n", a.Name, c.Name, c.Usage, c.Summary)
	fs := flag.NewFlagSet(c.Name, flag.ContinueOnError)
	fs.SetOutput(w)
	if c.SetFlags != nil {
		c.SetFlags(fs)
		fmt.Fprintf(w, "\nFlags:\n")
		fs.PrintDefaults()
	}
}
