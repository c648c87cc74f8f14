package runner

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// expoFamily tracks one announced metric family during validation.
type expoFamily struct {
	typ     string
	hasHelp bool
	// histogram reconciliation state, keyed by the label set minus le.
	buckets map[string][]bucketSample
	counts  map[string]float64
}

type bucketSample struct {
	bound float64
	count float64
}

// ValidateExposition checks that r is well-formed Prometheus text
// exposition: every sample belongs to a family announced by a HELP/TYPE
// pair, no family is announced twice, sample values parse as floats,
// and histogram bucket series are cumulative (non-decreasing in le)
// with a +Inf bucket that equals the family's _count. It is used by the
// /metrics test suite and is deliberately strict — a scrape that fails
// here would also confuse a real Prometheus server.
func ValidateExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fams := map[string]*expoFamily{}
	cur := "" // family whose block we are inside
	line := 0

	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		switch {
		case strings.HasPrefix(text, "# HELP "):
			rest := strings.TrimPrefix(text, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				return fmt.Errorf("line %d: malformed HELP: %s", line, text)
			}
			if f := fams[name]; f != nil && f.hasHelp {
				return fmt.Errorf("line %d: duplicate HELP for %s", line, name)
			}
			fams[name] = &expoFamily{hasHelp: true,
				buckets: map[string][]bucketSample{}, counts: map[string]float64{}}
		case strings.HasPrefix(text, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(text, "# TYPE "))
			if len(fields) != 2 {
				return fmt.Errorf("line %d: malformed TYPE: %s", line, text)
			}
			name, typ := fields[0], fields[1]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("line %d: unknown TYPE %q for %s", line, typ, name)
			}
			f := fams[name]
			if f == nil || !f.hasHelp {
				return fmt.Errorf("line %d: TYPE %s without preceding HELP", line, name)
			}
			if f.typ != "" {
				return fmt.Errorf("line %d: duplicate TYPE for %s", line, name)
			}
			f.typ = typ
			cur = name
		case strings.HasPrefix(text, "#"):
			// free-form comment; ignore
		default:
			name, labels, value, err := parseSample(text)
			if err != nil {
				return fmt.Errorf("line %d: %v", line, err)
			}
			base := sampleFamilyName(name, fams)
			if base == "" {
				return fmt.Errorf("line %d: sample %s has no HELP/TYPE", line, name)
			}
			if base != cur {
				return fmt.Errorf("line %d: sample %s outside its family block (current %q)", line, name, cur)
			}
			f := fams[base]
			if f.typ == "histogram" {
				key := labelsWithoutLE(labels)
				switch name {
				case base + "_bucket":
					le, ok := labelValue(labels, "le")
					if !ok {
						return fmt.Errorf("line %d: histogram bucket without le label: %s", line, text)
					}
					bound, err := parseFloatValue(le)
					if err != nil {
						return fmt.Errorf("line %d: bad le %q: %v", line, le, err)
					}
					f.buckets[key] = append(f.buckets[key], bucketSample{bound, value})
				case base + "_count":
					f.counts[key] = value
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for name, f := range fams {
		if f.typ == "" {
			return fmt.Errorf("family %s has HELP but no TYPE", name)
		}
		if f.typ != "histogram" {
			continue
		}
		for key, bs := range f.buckets {
			sort.Slice(bs, func(i, j int) bool { return bs[i].bound < bs[j].bound })
			prev := -1.0
			for _, b := range bs {
				if b.count < prev {
					return fmt.Errorf("histogram %s{%s}: bucket counts decrease at le=%g", name, key, b.bound)
				}
				prev = b.count
			}
			last := bs[len(bs)-1]
			if !math.IsInf(last.bound, 1) {
				return fmt.Errorf("histogram %s{%s}: missing +Inf bucket", name, key)
			}
			if c, ok := f.counts[key]; ok && c != last.count {
				return fmt.Errorf("histogram %s{%s}: +Inf bucket %g != _count %g", name, key, last.count, c)
			}
		}
	}
	return nil
}

var sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)(\s+-?\d+)?$`)

// parseSample splits a sample line into name, raw label string (without
// braces), and value.
func parseSample(text string) (name, labels string, value float64, err error) {
	m := sampleRe.FindStringSubmatch(text)
	if m == nil {
		return "", "", 0, fmt.Errorf("malformed sample: %s", text)
	}
	v, err := parseFloatValue(m[3])
	if err != nil {
		return "", "", 0, fmt.Errorf("bad value in %q: %v", text, err)
	}
	return m[1], strings.Trim(m[2], "{}"), v, nil
}

// sampleFamilyName maps a sample name to its announced family,
// accounting for the _bucket/_sum/_count suffixes of histograms and
// summaries.
func sampleFamilyName(name string, fams map[string]*expoFamily) string {
	if _, ok := fams[name]; ok {
		return name
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base == name {
			continue
		}
		if f, ok := fams[base]; ok && (f.typ == "histogram" || f.typ == "summary") {
			return base
		}
	}
	return ""
}

// labelsWithoutLE strips the le pair from a raw label string.
func labelsWithoutLE(labels string) string {
	if labels == "" {
		return ""
	}
	parts := strings.Split(labels, ",")
	kept := parts[:0]
	for _, p := range parts {
		if !strings.HasPrefix(strings.TrimSpace(p), "le=") {
			kept = append(kept, p)
		}
	}
	return strings.Join(kept, ",")
}

// labelValue extracts one label's (unquoted) value.
func labelValue(labels, key string) (string, bool) {
	for _, p := range strings.Split(labels, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
		if ok && k == key {
			if uq, err := strconv.Unquote(v); err == nil {
				return uq, true
			}
			return v, true
		}
	}
	return "", false
}

// parseFloatValue parses a sample value, accepting +Inf/-Inf/NaN.
func parseFloatValue(s string) (float64, error) {
	return strconv.ParseFloat(s, 64)
}

func TestValidateExpositionRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"sample without family": "loose_metric 1\n",
		"duplicate TYPE":        "# HELP a x\n# TYPE a gauge\n# HELP a x\n# TYPE a gauge\na 1\n",
		"non-monotonic histogram": strings.Join([]string{
			"# HELP h x",
			"# TYPE h histogram",
			`h_bucket{le="1"} 5`,
			`h_bucket{le="2"} 3`,
			`h_bucket{le="+Inf"} 5`,
			"h_sum 1",
			"h_count 5",
			"",
		}, "\n"),
		"missing +Inf bucket": strings.Join([]string{
			"# HELP h x",
			"# TYPE h histogram",
			`h_bucket{le="1"} 5`,
			"h_sum 1",
			"h_count 5",
			"",
		}, "\n"),
		"count mismatch": strings.Join([]string{
			"# HELP h x",
			"# TYPE h histogram",
			`h_bucket{le="+Inf"} 4`,
			"h_sum 1",
			"h_count 5",
			"",
		}, "\n"),
		"bad value": "# HELP a x\n# TYPE a gauge\na banana\n",
	}
	for name, in := range cases {
		if err := ValidateExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}
