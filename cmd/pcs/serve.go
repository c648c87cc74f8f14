package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/expers"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/version"
)

// serveCommand exposes the campaign runner (internal/runner) as an HTTP
// job service, so sweep and Monte-Carlo campaigns over the repository's
// experiment kinds can be submitted, monitored and harvested remotely —
// the old pcs-server binary as a subcommand:
//
//	POST   /campaigns               submit a campaign (spec document)
//	GET    /campaigns               list campaigns
//	GET    /campaigns/{id}          status, progress, ETA
//	GET    /campaigns/{id}/results  stream result records as JSON lines
//	GET    /campaigns/{id}/events   stream job lifecycle events (NDJSON)
//	GET    /campaigns/{id}/spans    stream trace spans (NDJSON; -trace)
//	DELETE /campaigns/{id}          cancel a campaign
//	GET    /metrics                 Prometheus exposition
//	GET    /healthz                 liveness probe
//	GET    /readyz                  readiness probe (503 once draining)
//
// POST /campaigns accepts the same declarative JSON spec document that
// pcs sim/sweep/multicore take via -spec, expanded through
// internal/config; a raw job list is a spec with a "campaign" section.
//
// The server drains gracefully on SIGTERM/SIGINT: /readyz flips to 503
// and new submissions are refused, the listener stops accepting
// requests, running campaigns are cancelled (simulations stop
// mid-flight via context), and their workers are waited for.
func serveCommand() *cli.Command {
	var (
		addr      string
		workers   int
		runsRoot  string
		grace     time.Duration
		withPprof bool
		logJSON   bool
		cacheDir  string
		traceOn   bool
	)
	return &cli.Command{
		Name:    "serve",
		Summary: "run the HTTP campaign job service",
		Usage:   "[-addr :8080] [-workers N] [-runs dir] [-grace 10s] [-pprof] [-log-json]",
		SetFlags: func(fs *flag.FlagSet) {
			fs.StringVar(&addr, "addr", ":8080", "listen address")
			fs.IntVar(&workers, "workers", 0, "default workers per campaign (0 = GOMAXPROCS)")
			fs.StringVar(&runsRoot, "runs", "runs", "artifact root directory (empty = no artifacts)")
			fs.DurationVar(&grace, "grace", 10*time.Second, "shutdown grace period for in-flight requests")
			fs.BoolVar(&withPprof, "pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
			fs.BoolVar(&logJSON, "log-json", false, "emit JSON log lines instead of key=value text")
			fs.StringVar(&cacheDir, "cache", "", "content-addressed result cache directory shared by all campaigns (adds resultstore_* metrics)")
			fs.BoolVar(&traceOn, "trace", true, "record campaign spans (runs/<id>/spans.jsonl and GET /campaigns/{id}/spans)")
		},
		Run: func(fs *flag.FlagSet) error {
			var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
			if logJSON {
				handler = slog.NewJSONHandler(os.Stderr, nil)
			}
			logger := slog.New(handler)

			cache, err := openCache(cacheDir)
			if err != nil {
				return err
			}
			srv := runner.NewServer(expers.NewCampaignRegistry(), config.ExpandBytes, runner.ServerOptions{
				DefaultWorkers: workers,
				ArtifactRoot:   runsRoot,
				Logger:         logger,
				Cache:          cache,
				CodeVersion:    version.String(),
				TraceSpans:     traceOn,
			})

			mux := http.NewServeMux()
			mux.Handle("/", srv.Handler())
			if withPprof {
				// Opt-in only: profiling endpoints expose heap contents and
				// must not be reachable on a default deployment.
				mux.HandleFunc("/debug/pprof/", pprof.Index)
				mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
				mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
				mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
				mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			}
			httpSrv := &http.Server{Addr: addr, Handler: obs.RequestLogger(logger, mux)}

			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			defer stop()

			errCh := make(chan error, 1)
			go func() { errCh <- httpSrv.ListenAndServe() }()
			logger.Info("listening", "addr", addr, "kinds", srv.Kinds(), "pprof", withPprof)

			select {
			case err := <-errCh:
				// Listener died before any signal; nothing to drain.
				return err
			case <-ctx.Done():
			}
			logger.Info("signal received, draining", "grace", grace)

			// Flip readiness first so load balancers stop routing here
			// while in-flight requests finish.
			srv.BeginDrain()
			shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
			defer cancel()
			if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
				logger.Error("shutdown", "err", err)
			}
			// Cancel running campaigns and wait for their workers.
			srv.Close()
			logger.Info("drained, exiting")
			return nil
		},
	}
}
