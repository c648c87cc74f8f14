package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/obs/tracez"
	"repro/internal/report"
)

// topCommand renders per-cell resource attribution — where a
// campaign's wall time, CPU time and simulated energy went. It reads
// the job spans of either an archived run directory (spans.jsonl) or a
// live pcs serve campaign over HTTP, following the span stream and
// refreshing the table until the campaign finishes. Tables go to
// stdout.
func topCommand(stdout io.Writer) *cli.Command {
	var (
		addr     string
		sortKey  string
		topN     int
		interval time.Duration
		once     bool
	)
	return &cli.Command{
		Name:    "top",
		Summary: "show per-cell resource attribution for a run directory or live campaign",
		Usage:   "[-sort key] [-n N] RUNDIR | -addr host:port [-interval 2s] [-once] [campaign-id]",
		SetFlags: func(fs *flag.FlagSet) {
			fs.StringVar(&addr, "addr", "", "pcs serve address; follow a live campaign instead of reading a run directory")
			fs.StringVar(&sortKey, "sort", "cpu", "sort key: cpu, wall, energy")
			fs.IntVar(&topN, "n", 15, "rows in the top-cells table (0 = all)")
			fs.DurationVar(&interval, "interval", 2*time.Second, "with -addr: table refresh period")
			fs.BoolVar(&once, "once", false, "with -addr: render the current snapshot once and exit")
		},
		Run: func(fs *flag.FlagSet) error {
			if addr == "" {
				if fs.NArg() != 1 {
					return fmt.Errorf("need exactly one run directory (or -addr for live mode)")
				}
				return renderTopCells(stdout, fs.Arg(0), sortKey, topN)
			}
			if fs.NArg() > 1 {
				return fmt.Errorf("at most one campaign id with -addr (got %d args)", fs.NArg())
			}
			return liveTop(stdout, addr, fs.Arg(0), sortKey, topN, interval, once)
		},
	}
}

// liveTop follows a campaign's span stream on a pcs serve instance and
// periodically re-renders the attribution tables. With an empty id it
// picks the most recently submitted campaign.
func liveTop(stdout io.Writer, addr, id, sortKey string, topN int, interval time.Duration, once bool) error {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if id == "" {
		var err error
		if id, err = latestCampaign(base); err != nil {
			return err
		}
	}

	resp, err := http.Get(base + "/campaigns/" + id + "/spans")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET /campaigns/%s/spans: %s: %s", id, resp.Status, strings.TrimSpace(string(body)))
	}

	// One goroutine decodes the NDJSON stream; the render loop below
	// consumes it on its own clock. The buffer absorbs the burst of a
	// campaign's recorded spans arriving while a table renders; done
	// stops the decoder when the render loop returns first.
	spCh := make(chan tracez.Span, 64)
	errCh := make(chan error, 1)
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer close(spCh)
		dec := json.NewDecoder(resp.Body)
		for {
			var sp tracez.Span
			if err := dec.Decode(&sp); err != nil {
				if err != io.EOF {
					errCh <- fmt.Errorf("span stream: %w", err)
				}
				return
			}
			select {
			case spCh <- sp:
			case <-done:
				return
			}
		}
	}()

	render := func(spans []tracez.Span, clear bool) error {
		cells, err := report.CellsFromSpans(spans)
		if err != nil {
			return err
		}
		if err := report.SortCells(cells, sortKey); err != nil {
			return err
		}
		if clear {
			fmt.Fprint(stdout, "\x1b[H\x1b[2J")
		}
		fmt.Fprintf(stdout, "campaign %s on %s — %d terminal cells, %s\n\n",
			id, addr, len(cells), time.Now().Format(time.TimeOnly))
		if err := report.TopCellsTable(cells, topN).Render(stdout); err != nil {
			return err
		}
		return report.KindSummaryTable(cells).Render(stdout)
	}

	var spans []tracez.Span
	if once {
		// Snapshot: the stream's first batch carries everything recorded
		// so far; a short quiet gap means we have caught up.
		quiet := time.NewTimer(300 * time.Millisecond)
		defer quiet.Stop()
	snapshot:
		for {
			select {
			case sp, ok := <-spCh:
				if !ok {
					break snapshot
				}
				spans = append(spans, sp)
				quiet.Reset(300 * time.Millisecond)
			case <-quiet.C:
				break snapshot
			}
		}
		return render(spans, false)
	}

	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case sp, ok := <-spCh:
			if !ok {
				select {
				case err := <-errCh:
					return err
				default:
				}
				return render(spans, false)
			}
			spans = append(spans, sp)
		case <-tick.C:
			if err := render(spans, true); err != nil {
				return err
			}
		}
	}
}

// latestCampaign asks the server for its campaign list and returns the
// most recently submitted id.
func latestCampaign(base string) (string, error) {
	resp, err := http.Get(base + "/campaigns")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /campaigns: %s", resp.Status)
	}
	var doc struct {
		Campaigns []struct {
			ID string `json:"id"`
		} `json:"campaigns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return "", fmt.Errorf("GET /campaigns: %w", err)
	}
	if len(doc.Campaigns) == 0 {
		return "", fmt.Errorf("server has no campaigns")
	}
	return doc.Campaigns[len(doc.Campaigns)-1].ID, nil
}
