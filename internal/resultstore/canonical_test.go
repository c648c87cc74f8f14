package resultstore_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/cpusim"
	"repro/internal/expers"
	"repro/internal/resultstore"
)

// referenceCanonicalJSON is the decode/re-marshal canonicalizer that
// CanonicalJSON must reproduce byte for byte: decode into an any with
// json.Number literals, then json.Marshal, which sorts map keys and
// writes each Number as its literal. The input must be one JSON value
// surrounded only by JSON whitespace; blank input is null.
func referenceCanonicalJSON(data []byte) ([]byte, error) {
	const space = " \t\r\n"
	if len(bytes.Trim(data, space)) == 0 {
		return []byte("null"), nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	// Decoder.More stops at a closing bracket, so check the rest of the
	// input directly.
	if len(bytes.Trim(data[dec.InputOffset():], space)) != 0 {
		return nil, errors.New("trailing data after document")
	}
	return json.Marshal(v)
}

// quirkInputs are not one JSON value surrounded by JSON whitespace, but
// a json.Decoder whose More stops at a closing bracket, or a
// bytes.TrimSpace blank check, lets them through.
var quirkInputs = []string{
	`{"a":1}]`, `{} }`, `{"a":1}]]]`, `[1]}`, `"x"]`, `1]`,
	"\f", "\v", "\u00a0", "\u0085", "\f{}", "{}\v", "\u00a0{}",
}

func TestCanonicalJSONErrors(t *testing.T) {
	bad := append([]string{`{"a":`, `{} {}`, `{"a" 1}`, `[1,]`, `01`, `"\x"`, "\"\x01\""}, quirkInputs...)
	for _, in := range bad {
		if got, err := resultstore.CanonicalJSON([]byte(in)); err == nil {
			t.Errorf("CanonicalJSON(%q) = %s, want an error", in, got)
		}
		if got, err := referenceCanonicalJSON([]byte(in)); err == nil {
			t.Errorf("reference(%q) = %s, want an error", in, got)
		}
	}
	for _, in := range []string{"", " \t\r\n"} {
		got, err := resultstore.CanonicalJSON([]byte(in))
		if err != nil || string(got) != "null" {
			t.Errorf("CanonicalJSON(%q) = %q, %v; want null", in, got, err)
		}
	}
	// A trailing closing bracket must not alias the bare object's key.
	if _, err := resultstore.Key("k", []byte(`{"a":1}]`), 0, "v"); err == nil {
		t.Error(`Key accepted {"a":1}]`)
	}
}

// TestCanonicalJSONAllocs checks that canonicalizing a parameter
// document allocates only its output once the pooled scratch state is
// warm.
func TestCanonicalJSONAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled state at random under -race")
	}
	for _, c := range resultstore.KeyFixtures {
		in := []byte(c.Params)
		if n := testing.AllocsPerRun(100, func() { resultstore.CanonicalJSON(in) }); n > 1 {
			t.Errorf("%s: %.0f allocs per CanonicalJSON, want 1", c.Name, n)
		}
	}
}

// nested returns depth levels of open, then inner, then the matching
// closes.
func nested(open, inner, close string, depth int) string {
	return strings.Repeat(open, depth) + inner + strings.Repeat(close, depth)
}

// FuzzCanonicalJSON pins CanonicalJSON to the decode/re-marshal
// reference: on every input both fail, or both succeed with identical
// bytes, and the canonical form is a fixed point.
func FuzzCanonicalJSON(f *testing.F) {
	for _, c := range resultstore.KeyFixtures {
		f.Add([]byte(c.Params))
	}
	for _, cfg := range []cpusim.SystemConfig{cpusim.ConfigA(), cpusim.ConfigB()} {
		p, err := json.Marshal(expers.Fig4CellParams{Config: cfg, Mode: "dpcs", Bench: "mcf", WarmupInstr: 200000, SimInstr: 1000000})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	examples, err := filepath.Glob("../../examples/*.json")
	if err != nil || len(examples) == 0 {
		f.Fatalf("examples: %v (%d files)", err, len(examples))
	}
	seen := map[string]bool{}
	for _, path := range examples {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		camp, _, err := config.ExpandBytes(raw)
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		for _, j := range camp.Jobs {
			if !seen[string(j.Params)] {
				seen[string(j.Params)] = true
				f.Add([]byte(j.Params))
			}
		}
	}
	for _, in := range quirkInputs {
		f.Add([]byte(in))
	}
	for _, in := range []string{
		"", " \t\r\n", `null`, `true`, `false`, `-0.10e+5`, `18446744073709551615`, `[]`, `{}`,
		`{"b":1,"a":{"d":[3,{"f":1,"e":2}],"c":null}}`,
		`{"a":1,"a":2,"a":3}`,
		"{\"\\u00e9\":1,\"\u00e9\":2,\"z\":0}",
		`{"<":1,">":2,"&":3,"A":4}`,
		"{\"\xff\":1,\"\xfe\":2}",
		"\"<>& \u2028\u2029 \U0001F600 \xff" + `\ud800 \udc00x \ud800A \ud800\\u0041 \u0000\u001f\b\f\n\r\t\/\"\\"`,
		"\"\xe2\x80\xa8\xe2\x80\xa9 \xed\xa0\x80 \xe2\x82 \x7f \xef\xbf\xbd\"",
		nested("[", "", "]", 10000),
		nested("[", "", "]", 10001),
		nested(`{"a":`, "1", "}", 10000),
		nested(`{"a":`, "1", "}", 10001),
		nested(`{"b":0,"a":[`, "1", "]}", 5000),
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := resultstore.CanonicalJSON(data)
		want, werr := referenceCanonicalJSON(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("CanonicalJSON(%q): error %v, reference error %v", data, err, werr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("CanonicalJSON(%q)\n got %q\nwant %q", data, got, want)
		}
		again, err := resultstore.CanonicalJSON(got)
		if err != nil || !bytes.Equal(again, got) {
			t.Fatalf("canonical form %q is not a fixed point: %q, %v", got, again, err)
		}
	})
}
