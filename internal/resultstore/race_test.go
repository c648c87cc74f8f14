//go:build race

package resultstore_test

// raceEnabled reports a -race build. Its sync.Pool drops a share of
// the objects put back, so allocation counts there are not the
// program's.
const raceEnabled = true
