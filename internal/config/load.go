package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/runner"
)

// strictDecodeJSON decodes data into v rejecting unknown fields and
// trailing garbage, so a typoed knob fails loudly.
func strictDecodeJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// A second value (or any non-space trailing bytes) is malformed.
	if dec.More() {
		return fmt.Errorf("trailing data after document")
	}
	return nil
}

// marshalJSON marshals a parameter struct; the types are all
// marshal-safe, so failure is a programming error surfaced as such.
func marshalJSON(v any) (json.RawMessage, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("config: marshal %T: %v", v, err)
	}
	return raw, nil
}

// Decode parses a JSON spec document, fills defaults and validates it.
// It is the one spec decoder: `-spec` files and POST /campaigns bodies
// both come through here. The returned document is ready to expand.
func Decode(data []byte) (*Document, error) {
	var d Document
	if err := strictDecodeJSON(data, &d); err != nil {
		return nil, fmt.Errorf("config: bad spec: %w", err)
	}
	d.ApplyDefaults()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Encode renders the document as indented canonical JSON. A document
// round-trips: Decode(Encode(d)) yields an equal document.
func (d *Document) Encode() ([]byte, error) {
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("config: %v", err)
	}
	return append(out, '\n'), nil
}

// Load reads and decodes a JSON spec file.
func Load(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// ExpandBytes decodes a raw spec document and expands it to a runnable
// campaign. It is the expander `pcs serve` hands runner.NewServer, so
// POST /campaigns accepts exactly the documents the CLI consumes; the
// returned worker count is the document's requested pool size (0 =
// server default).
func ExpandBytes(raw []byte) (runner.Campaign, int, error) {
	d, err := Decode(raw)
	if err != nil {
		return runner.Campaign{}, 0, err
	}
	camp, err := d.ExpandCampaign()
	if err != nil {
		return runner.Campaign{}, 0, err
	}
	return camp, d.Workers, nil
}
