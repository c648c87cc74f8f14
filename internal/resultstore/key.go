// Package resultstore is the content-addressed cell-result cache:
// campaign cells are pure functions of (canonical spec JSON, effective
// seed, code version), so their outputs can be memoized under the
// SHA-256 of exactly those inputs and reused by any later campaign that
// expands the same cell — repeated or overlapping campaigns become
// incremental, and a shared pcs serve instance deduplicates work across
// users.
//
// The store is a thin accounting layer (hit/miss/put counters, byte
// totals) over a pluggable Backend. The only backend today is a local
// sharded directory (see DirBackend); the interface is deliberately
// small — Get/Put/Entries/Delete over opaque keys and byte slices — so
// an S3-compatible object-store backend can drop in later without
// touching the runner integration.
//
// Keys must be stable across processes, architectures and JSON field
// order, which is why hashing goes through CanonicalJSON rather than
// the raw parameter bytes: two spec documents that decode to the same
// cell hash identically even if their files differ in key order or
// whitespace.
package resultstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Key computes the content address of one campaign cell:
//
//	SHA-256(kind ‖ 0x00 ‖ canonical-params-JSON ‖ 0x00 ‖ seed ‖ 0x00 ‖ codeVersion)
//
// hex-encoded. The seed is the cell's effective seed (the derived
// per-job seed, or the pinned params seed — the caller resolves which);
// codeVersion is the build identity (internal/version), so a rebuild
// with different code never serves stale results. Job names are
// deliberately excluded: they are labels, and relabelling a cell must
// not change its address.
func Key(kind string, params []byte, seed uint64, codeVersion string) (string, error) {
	canon, err := CanonicalJSON(params)
	if err != nil {
		return "", err
	}
	return KeyCanonical(kind, canon, seed, codeVersion), nil
}

// KeyCanonical is Key over params already in CanonicalJSON form, for a
// caller that canonicalized them once for other uses too (the runner
// writes the same bytes into manifest.json). Passing non-canonical
// bytes yields a key no other spelling of the document shares.
func KeyCanonical(kind string, canonParams []byte, seed uint64, codeVersion string) string {
	h := sha256.New()
	var sep = [1]byte{0}
	var seedBuf [8]byte
	binary.BigEndian.PutUint64(seedBuf[:], seed)
	h.Write([]byte(kind))
	h.Write(sep[:])
	h.Write(canonParams)
	h.Write(sep[:])
	h.Write(seedBuf[:])
	h.Write(sep[:])
	h.Write([]byte(codeVersion))
	return hex.EncodeToString(h.Sum(nil))
}
