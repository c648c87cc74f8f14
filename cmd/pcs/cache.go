package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/resultstore"
	"repro/internal/runner"
)

// openCache opens the content-addressed result store at dir; "" means
// caching is disabled and the returned interface is nil (a typed-nil
// *Store would defeat the runner's nil check).
func openCache(dir string) (runner.ResultCache, error) {
	if dir == "" {
		return nil, nil
	}
	store, err := resultstore.Open(dir)
	if err != nil {
		return nil, err
	}
	return store, nil
}

// cacheCommand inspects and prunes the content-addressed result store:
//
//	pcs cache stats [-cache DIR]
//	pcs cache gc [-cache DIR] [-max-bytes N] [-max-age DUR]
//
// The action comes first so its flags can follow it; the cache
// directory also defaults from PCS_CACHE. Both actions read an
// existing store and fail, creating nothing, when DIR is missing.
// Reports go to stdout.
func cacheCommand(stdout io.Writer) *cli.Command {
	return &cli.Command{
		Name:    "cache",
		Summary: "inspect or prune the content-addressed result store",
		Usage:   "stats|gc [-cache DIR] [-max-bytes N] [-max-age DUR]",
		Run: func(fs *flag.FlagSet) error {
			if fs.NArg() == 0 {
				return fmt.Errorf("need an action: stats or gc")
			}
			action := fs.Arg(0)
			if action != "stats" && action != "gc" {
				return fmt.Errorf("unknown action %q (want stats or gc)", action)
			}
			sub := flag.NewFlagSet("pcs cache "+action, flag.ContinueOnError)
			sub.SetOutput(fs.Output())
			defaultDir := os.Getenv("PCS_CACHE")
			if defaultDir == "" {
				defaultDir = resultstore.DefaultDirName
			}
			var (
				dir      = sub.String("cache", defaultDir, "result cache directory (env PCS_CACHE)")
				maxBytes = sub.Int64("max-bytes", 0, "gc: evict oldest entries until total size <= N bytes (0 = no size bound)")
				maxAge   = sub.Duration("max-age", 0, "gc: evict entries older than this (0 = no age bound)")
			)
			if err := sub.Parse(fs.Args()[1:]); err != nil {
				if err == flag.ErrHelp {
					return nil
				}
				return cli.ErrUsage // sub printed the error and the flags
			}
			if action == "gc" && *maxBytes == 0 && *maxAge == 0 {
				return fmt.Errorf("gc needs -max-bytes and/or -max-age")
			}
			// resultstore.Open creates a missing directory, as the
			// campaign commands' -cache wants; these actions must not.
			if _, err := os.Stat(*dir); err != nil {
				return err
			}
			store, err := resultstore.Open(*dir)
			if err != nil {
				return err
			}
			if action == "stats" {
				st, err := store.Stats()
				if err != nil {
					return err
				}
				fmt.Fprintf(stdout, "cache %s: %d entries, %d bytes\n", *dir, st.Entries, st.Bytes)
				return nil
			}
			res, err := store.GC(resultstore.GCOptions{MaxBytes: *maxBytes, MaxAge: *maxAge})
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "cache %s: scanned %d, removed %d entries (%d bytes), %d bytes remain\n",
				*dir, res.Scanned, res.Removed, res.RemovedBytes, res.RemainingBytes)
			return nil
		},
	}
}
