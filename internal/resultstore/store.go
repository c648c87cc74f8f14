package resultstore

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Store is the layer over a Backend that the runner's ResultCache
// contract (Get/Put on string keys) and the cache commands use. It
// keeps one piece of state, an approximate byte total for the server's
// resultstore_bytes gauge (ScrapeSizeBytes). All methods are safe for
// concurrent use.
type Store struct {
	backend Backend

	// bytes mirrors the backend footprint: set by each scrape-time walk
	// and by GC, and grown by Put in between. Concurrent external
	// writers make it approximate until the next walk, which is fine for
	// a gauge.
	bytes atomic.Int64

	// Scrape refresh state: ScrapeSizeBytes re-walks the backend at most
	// once per scrapeTTL so the gauge converges on the true footprint
	// (picking up external writers and GC in other processes) without
	// paying a directory walk on every scrape.
	scrapeMu   sync.Mutex
	scrapeLast time.Time
	scrapeTTL  time.Duration
}

// defaultScrapeTTL bounds how often ScrapeSizeBytes re-walks the
// backend. Prometheus-style scrapers typically poll every 10-60 s, so a
// 10 s floor means at most one walk per scrape interval.
const defaultScrapeTTL = 10 * time.Second

// Open opens (creating if needed) a Store over a local directory
// backend — the `-cache DIR` form every pcs subcommand accepts.
func Open(dir string) (*Store, error) {
	b, err := OpenDir(dir)
	if err != nil {
		return nil, err
	}
	return NewStore(b)
}

// NewStore wraps an arbitrary backend. It reads nothing from it: the
// first ScrapeSizeBytes walks the backend, and a backend that cannot
// be read fails its Gets, which the runner recomputes. The error is
// always nil.
func NewStore(b Backend) (*Store, error) {
	return &Store{backend: b, scrapeTTL: defaultScrapeTTL}, nil
}

// Get looks a key up. The runner treats an error as a miss, so a flaky
// cache degrades to recomputation rather than failing campaigns.
func (s *Store) Get(key string) ([]byte, bool, error) {
	return s.backend.Get(key)
}

// Put stores a computed result. The runner treats it as best effort (a
// failed Put never fails the job).
func (s *Store) Put(key string, data []byte) error {
	if err := s.backend.Put(key, data); err != nil {
		return err
	}
	s.bytes.Add(int64(len(data)))
	return nil
}

// ScrapeSizeBytes returns the approximate stored byte total: at most
// once per TTL, the first call included, it re-walks the backend, so a
// scraped gauge tracks external writers and cross-process GC instead
// of drifting for the life of the server; in between it adds this
// store's Puts to the last walk. Walk errors keep the last known value
// — a metrics scrape must never fail a campaign.
func (s *Store) ScrapeSizeBytes() int64 {
	s.scrapeMu.Lock()
	stale := time.Since(s.scrapeLast) >= s.scrapeTTL
	if stale {
		s.scrapeLast = time.Now()
	}
	s.scrapeMu.Unlock()
	if stale {
		if st, err := s.Stats(); err == nil {
			s.bytes.Store(st.Bytes)
		}
	}
	return s.bytes.Load()
}

// Stats is the store's exact footprint, from a backend walk.
type Stats struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// Stats walks the backend and returns its exact entry and byte totals.
func (s *Store) Stats() (Stats, error) {
	infos, err := s.backend.Entries()
	if err != nil {
		return Stats{}, err
	}
	st := Stats{Entries: len(infos)}
	for _, e := range infos {
		st.Bytes += e.Bytes
	}
	return st, nil
}

// GCOptions bound a collection pass. Zero values mean "no bound on this
// axis"; GC with both zero is a no-op.
type GCOptions struct {
	// MaxBytes evicts oldest entries until the store fits.
	MaxBytes int64
	// MaxAge evicts entries older than this.
	MaxAge time.Duration
	// Now anchors MaxAge; zero means time.Now().
	Now time.Time
}

// GCResult summarises one collection pass.
type GCResult struct {
	Scanned        int   `json:"scanned"`
	Removed        int   `json:"removed"`
	RemovedBytes   int64 `json:"removed_bytes"`
	RemainingBytes int64 `json:"remaining_bytes"`
}

// GC evicts entries oldest-first until the store satisfies opts.
// Deleting a key another process already removed is not an error, so
// concurrent GC passes are safe (if wasteful).
func (s *Store) GC(opts GCOptions) (GCResult, error) {
	infos, err := s.backend.Entries()
	if err != nil {
		return GCResult{}, err
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ModTime.Before(infos[j].ModTime) })
	var total int64
	for _, e := range infos {
		total += e.Bytes
	}
	now := opts.Now
	if now.IsZero() {
		now = time.Now()
	}
	res := GCResult{Scanned: len(infos), RemainingBytes: total}
	for _, e := range infos {
		tooOld := opts.MaxAge > 0 && now.Sub(e.ModTime) > opts.MaxAge
		tooBig := opts.MaxBytes > 0 && res.RemainingBytes > opts.MaxBytes
		if !tooOld && !tooBig {
			if opts.MaxAge <= 0 {
				// Entries are age-sorted: once under the byte budget with
				// no age bound, nothing further can be evictable.
				break
			}
			continue
		}
		if err := s.backend.Delete(e.Key); err != nil {
			return res, err
		}
		res.Removed++
		res.RemovedBytes += e.Bytes
		res.RemainingBytes -= e.Bytes
	}
	s.bytes.Store(res.RemainingBytes)
	return res, nil
}
