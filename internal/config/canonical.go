package config

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/resultstore"
)

// CanonicalJSON renders the document in the result store's canonical
// form — sorted keys, compact, number literals preserved — so two
// specs that differ only in formatting or key order serialize
// identically.
func (d *Document) CanonicalJSON() ([]byte, error) {
	raw, err := json.Marshal(d)
	if err != nil {
		return nil, fmt.Errorf("config: %v", err)
	}
	return resultstore.CanonicalJSON(raw)
}

// Digest is the hex SHA-256 of CanonicalJSON: the spec identity a run
// ledger records and `pcs verify` recomputes.
func (d *Document) Digest() (string, error) {
	c, err := d.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}
