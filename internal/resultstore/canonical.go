package resultstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"unicode/utf8"
)

// CanonicalJSON re-encodes a JSON document in canonical form: object
// keys sorted by their decoded string (the last of duplicate keys
// wins), insignificant whitespace removed, number literals copied
// exactly as written (so 0.10 and 0.1 stay distinct but field order
// never matters), and strings re-encoded as encoding/json writes them
// (HTML-escaped <, > and &, escaped U+2028/U+2029, invalid UTF-8
// coerced to U+FFFD). Two semantically identical parameter documents
// canonicalize to the same bytes.
//
// The output is byte for byte what decoding into an any with
// json.Decoder.UseNumber and re-marshalling with json.Marshal gives,
// produced in one pass over the input without building decoded values;
// only a string holding an escape, <, >, &, U+2028/U+2029 or invalid
// UTF-8 goes through encoding/json to be re-encoded. The input must be
// exactly one JSON value, optionally surrounded by JSON whitespace
// (space, tab, CR, LF); an empty or whitespace-only input canonicalizes
// to null. Nesting deeper than encoding/json's limit is an error, as it
// is there.
func CanonicalJSON(data []byte) ([]byte, error) {
	c := canonPool.Get().(*canonicalizer)
	defer c.release()
	c.src = data
	c.skipSpace()
	if c.pos == len(data) {
		return []byte("null"), nil
	}
	if err := c.parse(0); err != nil {
		return nil, err
	}
	if c.skipSpace(); c.pos != len(data) {
		return nil, c.syntax("after top-level value")
	}
	out, _ := c.emit(make([]byte, 0, len(data)), 0)
	return out, nil
}

// maxDepth is encoding/json's nesting limit for objects and arrays.
const maxDepth = 10000

// A canonicalizer parses a document into a flat list of nodes (pass
// one, over the input bytes), then writes the canonical form by walking
// the nodes with each object's members sorted (pass two, over the
// nodes). The node list lets a deep document be emitted in linear time:
// no member's output is ever moved once written.
type canonicalizer struct {
	src   []byte
	pos   int
	nodes []node
	// members is a stack of the objects being emitted, each sorting
	// its own members in place at the top.
	members []member
	// keys holds decoded object keys that differ from their source
	// bytes.
	keys []byte
}

// node is one value in document order. A container is followed by its
// contents: an array by its elements, an object by a key node and the
// value's nodes for each member.
type node struct {
	kind byte // '{', '[', '"' (string or key), or 'v' (number or literal)
	// escaped marks a string whose source bytes may not be its
	// canonical form: encoding/json decodes and re-encodes it.
	escaped    bool
	start, end int // source span; strings include their quotes
	next       int // index of the node after this one's contents
}

type member struct {
	key []byte // decoded
	at  int    // index of the key node; the value's node follows it
}

var canonPool = sync.Pool{New: func() any { return new(canonicalizer) }}

// release returns c to the pool without keeping the caller's input.
func (c *canonicalizer) release() {
	c.src, c.pos = nil, 0
	c.nodes, c.members = c.nodes[:0], c.members[:0]
	c.keys = c.keys[:0]
	canonPool.Put(c)
}

func (c *canonicalizer) syntax(context string) error {
	if c.pos >= len(c.src) {
		return fmt.Errorf("resultstore: canonicalize: unexpected end of JSON input")
	}
	return fmt.Errorf("resultstore: canonicalize: invalid character %q at offset %d %s", c.src[c.pos], c.pos, context)
}

func (c *canonicalizer) skipSpace() {
	for c.pos < len(c.src) {
		switch c.src[c.pos] {
		case ' ', '\t', '\r', '\n':
			c.pos++
		default:
			return
		}
	}
}

// peek returns the byte at the cursor, or 0 at the end of the input
// (0 is never valid there, so every caller's error path covers it).
func (c *canonicalizer) peek() byte {
	if c.pos < len(c.src) {
		return c.src[c.pos]
	}
	return 0
}

// parse appends the nodes of the value at the cursor (after optional
// whitespace); depth counts the enclosing containers.
func (c *canonicalizer) parse(depth int) error {
	c.skipSpace()
	at := len(c.nodes)
	var err error
	switch b := c.peek(); {
	case b == '{' || b == '[':
		if depth >= maxDepth {
			return fmt.Errorf("resultstore: canonicalize: exceeded max depth at offset %d", c.pos)
		}
		c.nodes = append(c.nodes, node{kind: b})
		c.pos++
		err = c.parseMembers(b == '{', depth+1)
	case b == '"':
		err = c.parseString()
	case b == '-' || isDigit(b):
		err = c.parseNumber()
	default:
		err = c.parseLiteral()
	}
	if err != nil {
		return err
	}
	c.nodes[at].next = len(c.nodes)
	return nil
}

// parseMembers parses an object's key:value pairs or an array's
// elements, through the closing bracket.
func (c *canonicalizer) parseMembers(object bool, depth int) error {
	closer := byte(']')
	if object {
		closer = '}'
	}
	if c.skipSpace(); c.peek() == closer {
		c.pos++
		return nil
	}
	for {
		if object {
			if c.skipSpace(); c.peek() != '"' {
				return c.syntax("looking for beginning of object key string")
			}
			if err := c.parseString(); err != nil {
				return err
			}
			c.nodes[len(c.nodes)-1].next = len(c.nodes)
			if c.skipSpace(); c.peek() != ':' {
				return c.syntax("after object key")
			}
			c.pos++
		}
		if err := c.parse(depth); err != nil {
			return err
		}
		c.skipSpace()
		switch c.peek() {
		case ',':
			c.pos++
		case closer:
			c.pos++
			return nil
		default:
			return c.syntax("after object member or array element")
		}
	}
}

// parseString appends the string at the cursor, noting whether its
// source bytes are already canonical.
func (c *canonicalizer) parseString() error {
	n := node{kind: '"', start: c.pos}
	c.pos++
	for {
		for c.pos < len(c.src) && htmlSafe[c.src[c.pos]] {
			c.pos++
		}
		switch b := c.peek(); {
		case c.pos == len(c.src):
			return c.syntax("")
		case b == '"':
			c.pos++
			n.end = c.pos
			c.nodes = append(c.nodes, n)
			return nil
		case b == '\\':
			n.escaped = true
			c.pos++
			switch c.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				c.pos++
			case 'u':
				c.pos++
				for i := 0; i < 4; i++ {
					if !isHex(c.peek()) {
						return c.syntax("in \\u hexadecimal character escape")
					}
					c.pos++
				}
			default:
				return c.syntax("in string escape code")
			}
		case b < ' ':
			return c.syntax("in string literal")
		case b < utf8.RuneSelf: // <, > or &
			n.escaped = true
			c.pos++
		default:
			r, size := utf8.DecodeRune(c.src[c.pos:])
			if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
				n.escaped = true
			}
			c.pos += size
		}
	}
}

// parseLiteral appends the true, false or null at the cursor.
func (c *canonicalizer) parseLiteral() error {
	for _, lit := range [...]string{"true", "false", "null"} {
		if end := c.pos + len(lit); end <= len(c.src) && string(c.src[c.pos:end]) == lit {
			c.nodes = append(c.nodes, node{kind: 'v', start: c.pos, end: end})
			c.pos = end
			return nil
		}
	}
	return c.syntax("looking for beginning of value")
}

func (c *canonicalizer) parseNumber() error {
	start := c.pos
	if c.peek() == '-' {
		c.pos++
	}
	switch b := c.peek(); {
	case b == '0':
		c.pos++
	case '1' <= b && b <= '9':
		c.digits()
	default:
		return c.syntax("in numeric literal")
	}
	if c.peek() == '.' {
		c.pos++
		if !isDigit(c.peek()) {
			return c.syntax("after decimal point in numeric literal")
		}
		c.digits()
	}
	if b := c.peek(); b == 'e' || b == 'E' {
		c.pos++
		if b := c.peek(); b == '+' || b == '-' {
			c.pos++
		}
		if !isDigit(c.peek()) {
			return c.syntax("in exponent of numeric literal")
		}
		c.digits()
	}
	c.nodes = append(c.nodes, node{kind: 'v', start: start, end: c.pos})
	return nil
}

func (c *canonicalizer) digits() {
	for isDigit(c.peek()) {
		c.pos++
	}
}

func isDigit(b byte) bool { return '0' <= b && b <= '9' }

func isHex(b byte) bool {
	return isDigit(b) || 'a' <= b && b <= 'f' || 'A' <= b && b <= 'F'
}

// emit appends the canonical form of node i and returns the index of
// the node after its contents.
func (c *canonicalizer) emit(out []byte, i int) ([]byte, int) {
	n := c.nodes[i]
	switch n.kind {
	case '{':
		base := len(c.members)
		for j := i + 1; j < n.next; j = c.nodes[j+1].next {
			c.members = append(c.members, member{key: c.decodedKey(j), at: j})
		}
		// Sorting is stable, so of several equal keys the last in the
		// document ends its run, and it is the one written.
		ms := c.members[base:]
		slices.SortStableFunc(ms, func(a, b member) int { return bytes.Compare(a.key, b.key) })
		out = append(out, '{')
		first := true
		for k, m := range ms {
			if k+1 < len(ms) && bytes.Equal(ms[k+1].key, m.key) {
				continue
			}
			if !first {
				out = append(out, ',')
			}
			first = false
			if c.nodes[m.at].escaped {
				out = quote(out, string(m.key))
			} else {
				out = append(out, c.src[c.nodes[m.at].start:c.nodes[m.at].end]...)
			}
			out = append(out, ':')
			// Nested objects push above ms and pop back to its end, so
			// ms stays intact (or, after a reallocation, still refers
			// to an array nothing writes to).
			out, _ = c.emit(out, m.at+1)
		}
		c.members = c.members[:base]
		return append(out, '}'), n.next
	case '[':
		out = append(out, '[')
		for j := i + 1; j < n.next; {
			if j > i+1 {
				out = append(out, ',')
			}
			out, j = c.emit(out, j)
		}
		return append(out, ']'), n.next
	case '"':
		if !n.escaped {
			return append(out, c.src[n.start:n.end]...), n.next
		}
		return quote(out, unquote(c.src[n.start:n.end])), n.next
	default:
		return append(out, c.src[n.start:n.end]...), n.next
	}
}

// decodedKey returns the decoded string of key node j. The slice stays
// valid for the whole emit pass: c.keys only ever grows.
func (c *canonicalizer) decodedKey(j int) []byte {
	n := c.nodes[j]
	if !n.escaped {
		return c.src[n.start+1 : n.end-1]
	}
	off := len(c.keys)
	c.keys = append(c.keys, unquote(c.src[n.start:n.end])...)
	return c.keys[off:len(c.keys):len(c.keys)]
}

// unquote decodes a string token, quotes included, as encoding/json
// decodes it: invalid UTF-8 and unpaired surrogate escapes become
// U+FFFD. The token has passed parseString, so decoding cannot fail.
func unquote(tok []byte) string {
	var s string
	_ = json.Unmarshal(tok, &s)
	return s
}

// quote appends s as json.Marshal writes a string: HTML-safe, with
// U+2028 and U+2029 escaped. Marshalling a string cannot fail.
func quote(dst []byte, s string) []byte {
	b, _ := json.Marshal(s)
	return append(dst, b...)
}

// htmlSafe marks the bytes a canonical string holds unescaped: ASCII
// from space to DEL except ", \, <, > and & (encoding/json's
// htmlSafeSet). Bytes from 0x80 up are checked as UTF-8 separately.
var htmlSafe = func() (t [256]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()
