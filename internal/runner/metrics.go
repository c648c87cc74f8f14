package runner

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// durationBuckets are the upper bounds, in seconds, of the
// pcs_job_duration_seconds histogram: millisecond analytical cells
// through minute-long simulation campaigns.
var durationBuckets = [...]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300}

// percentileGauges are the p50/p95/p99 gauges derived from the histogram.
var percentileGauges = [...]struct {
	name string
	q    float64
}{
	{"pcs_job_duration_seconds_p50", 0.50},
	{"pcs_job_duration_seconds_p95", 0.95},
	{"pcs_job_duration_seconds_p99", 0.99},
}

// kindMetrics is one kind's duration histogram and failure count over
// every campaign the server holds.
type kindMetrics struct {
	// counts is per bucket, not cumulative; the last is the +Inf
	// overflow.
	counts [len(durationBuckets) + 1]uint64
	sum    float64
	count  uint64
	errors uint64
}

// observe adds one job duration; a value on a bucket's bound falls in
// that bucket (le).
func (k *kindMetrics) observe(secs float64) {
	k.counts[sort.SearchFloat64s(durationBuckets[:], secs)]++
	k.sum += secs
	k.count++
}

// quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation inside the bucket holding rank q·count, as PromQL's
// histogram_quantile does from the exposition. It returns NaN with no
// observations, and the largest finite bound when the rank falls in
// the +Inf bucket, which has no upper bound to interpolate toward.
func (k *kindMetrics) quantile(q float64) float64 {
	if k.count == 0 {
		return math.NaN()
	}
	rank := q * float64(k.count)
	var cum uint64
	for i, bound := range durationBuckets {
		in := k.counts[i]
		if in > 0 && float64(cum+in) >= rank {
			lower := 0.0
			if i > 0 {
				lower = durationBuckets[i-1]
			}
			frac := (rank - float64(cum)) / float64(in)
			return lower + (bound-lower)*frac
		}
		cum += in
	}
	return durationBuckets[len(durationBuckets)-1]
}

// scrapeView is one scrape's view of the server, summed over its
// campaign records.
type scrapeView struct {
	campaigns, campaignsRunning   int
	jobsQueued, jobsRunning       int
	jobsDone, jobsFailed, workers int
	utilization, jobsPerSec       float64
	kinds                         map[string]*kindMetrics
	cacheHits, cacheMisses        int
}

// collectMetrics walks the campaigns in submission order, each under
// its lock. Counters are sums over the campaigns' job results; the
// server never evicts a campaign, so those sums only grow. Gauges
// come from the running campaigns' progress. Every kind a campaign
// submits has its series, observed or not.
func (s *Server) collectMetrics() scrapeView {
	s.mu.Lock()
	camps := make([]*campaignState, len(s.order))
	for i, id := range s.order {
		camps[i] = s.campaigns[id]
	}
	s.mu.Unlock()

	m := scrapeView{campaigns: len(camps), kinds: make(map[string]*kindMetrics)}
	lifetime := 0
	for _, cs := range camps {
		cs.mu.Lock()
		p := cs.progress
		lifetime += p.Completed()
		if cs.state == "running" {
			m.campaignsRunning++
			m.jobsRunning += p.Running
			m.jobsQueued += p.Total - p.Completed() - p.Running
			m.workers += cs.workers
			m.jobsPerSec += p.JobsPerSec
		}
		for _, spec := range cs.campaign.Jobs {
			if m.kinds[spec.Kind] == nil {
				m.kinds[spec.Kind] = &kindMetrics{}
			}
		}
		for _, r := range cs.results {
			if r == nil {
				continue
			}
			k := m.kinds[r.Kind]
			switch r.Status {
			case StatusDone:
				m.jobsDone++
				// A job that never consulted the store counts as neither.
				if r.Resources.CacheHit {
					m.cacheHits++
				} else if r.Resources.CacheMiss {
					m.cacheMisses++
				}
			case StatusFailed:
				m.jobsFailed++
				k.errors++
			default:
				continue
			}
			k.observe(r.Duration.Seconds())
		}
		cs.mu.Unlock()
	}
	if m.workers > 0 {
		m.utilization = float64(m.jobsRunning) / float64(m.workers)
	}
	// Idle, the rate falls back to the lifetime average.
	if m.campaignsRunning == 0 {
		if secs := time.Since(s.started).Seconds(); secs > 0 {
			m.jobsPerSec = float64(lifetime) / secs
		}
	}
	return m
}

// handleMetrics renders collectMetrics as Prometheus text exposition
// (version 0.0.4): a HELP/TYPE pair per family, labelled series sorted
// by kind, histograms with cumulative buckets, a +Inf bucket, _sum and
// _count. The resultstore_* families appear only with a cache.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.collectMetrics()
	kinds := make([]string, 0, len(m.kinds))
	for k := range m.kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)

	var b bytes.Buffer
	family := func(name, help, typ string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	counter := func(name, help string, n int) {
		family(name, help, "counter")
		fmt.Fprintf(&b, "%s %d\n", name, n)
	}
	gauge := func(name, help string, v float64) {
		family(name, help, "gauge")
		fmt.Fprintf(&b, "%s %s\n", name, formatValue(v))
	}
	counter("pcs_campaigns_total", "Campaigns submitted since server start.", m.campaigns)
	gauge("pcs_campaigns_running", "Campaigns currently executing.", float64(m.campaignsRunning))
	gauge("pcs_jobs_queued", "Jobs waiting for a worker.", float64(m.jobsQueued))
	gauge("pcs_jobs_running", "Jobs currently executing.", float64(m.jobsRunning))
	counter("pcs_jobs_done", "Jobs completed successfully.", m.jobsDone)
	counter("pcs_jobs_failed", "Jobs that returned an error or panicked.", m.jobsFailed)
	gauge("pcs_workers", "Configured workers across running campaigns.", float64(m.workers))
	gauge("pcs_worker_utilization", "Running jobs per configured worker.", m.utilization)
	gauge("pcs_jobs_per_second", "Aggregate job completion rate.", m.jobsPerSec)

	family("pcs_job_duration_seconds", "Job wall-clock duration by campaign kind.", "histogram")
	for _, kind := range kinds {
		k := m.kinds[kind]
		var cum uint64
		for i, bound := range durationBuckets {
			cum += k.counts[i]
			fmt.Fprintf(&b, "pcs_job_duration_seconds_bucket{kind=%q,le=%q} %d\n", kind, formatValue(bound), cum)
		}
		fmt.Fprintf(&b, "pcs_job_duration_seconds_bucket{kind=%q,le=\"+Inf\"} %d\n", kind, k.count)
		fmt.Fprintf(&b, "pcs_job_duration_seconds_sum{kind=%q} %s\n", kind, formatValue(k.sum))
		fmt.Fprintf(&b, "pcs_job_duration_seconds_count{kind=%q} %d\n", kind, k.count)
	}
	family("pcs_job_errors_total", "Failed jobs by campaign kind.", "counter")
	for _, kind := range kinds {
		fmt.Fprintf(&b, "pcs_job_errors_total{kind=%q} %d\n", kind, m.kinds[kind].errors)
	}
	for _, q := range percentileGauges {
		family(q.name, fmt.Sprintf("Job duration quantile (q=%g) by kind, interpolated from pcs_job_duration_seconds buckets at scrape time.", q.q), "gauge")
		for _, kind := range kinds {
			fmt.Fprintf(&b, "%s{kind=%q} %s\n", q.name, kind, formatValue(m.kinds[kind].quantile(q.q)))
		}
	}
	if s.cache != nil {
		counter("resultstore_hits_total", "Campaign cells served from the content-addressed result store.", m.cacheHits)
		counter("resultstore_misses_total", "Campaign cells computed because the result store had no entry.", m.cacheMisses)
		// resultstore.Store re-walks its backend at most once per TTL,
		// so writers outside this server show up; other caches read 0.
		var size int64
		if sized, ok := s.cache.(interface{ ScrapeSizeBytes() int64 }); ok {
			size = sized.ScrapeSizeBytes()
		}
		gauge("resultstore_bytes", "Bytes stored in the result store, refreshed on scrape.", float64(size))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if _, err := w.Write(b.Bytes()); err != nil {
		s.log.Warn("write metrics", "err", err)
	}
}

// formatValue renders a sample value compactly: integral values
// without an exponent ("5", not "5e+00"), others in Go's shortest 'g'
// form, which spells NaN and ±Inf as Prometheus does.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
