//go:build !race

package resultstore_test

const raceEnabled = false
