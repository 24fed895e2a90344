// Package jsonlex holds the pieces the project's hand-written JSON fast
// paths share: a lexer for encoding/json's compact layout and appenders
// that write encoding/json's bytes. A fast path built on them takes only
// what it can decode exactly as json.Unmarshal would and hands everything
// else to encoding/json, whose verdict stands; each one is held to
// encoding/json as its oracle by its own tests.
package jsonlex

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
)

// Lexer reads one JSON document in encoding/json's compact layout, where
// no whitespace separates tokens. The first token it cannot take makes it
// Bad; what it reads after that is never used, since the document goes to
// encoding/json.
type Lexer struct {
	b   []byte
	i   int
	bad bool
}

// New returns a lexer at the start of b.
func New(b []byte) Lexer { return Lexer{b: b} }

// Bad reports whether the lexer met a token it cannot take.
func (p *Lexer) Bad() bool { return p.bad }

// Fail marks the document as one the fast path does not take.
func (p *Lexer) Fail() { p.bad = true }

// Done reports whether the whole document was read and taken.
func (p *Lexer) Done() bool { return !p.bad && p.i == len(p.b) }

// WS skips JSON whitespace.
func (p *Lexer) WS() {
	for p.i < len(p.b) && (p.b[p.i] == ' ' || p.b[p.i] == '\t' || p.b[p.i] == '\n' || p.b[p.i] == '\r') {
		p.i++
	}
}

// Skip consumes c when it is the next byte.
func (p *Lexer) Skip(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// Expect consumes c, or fails the document.
func (p *Lexer) Expect(c byte) {
	if !p.Skip(c) {
		p.bad = true
	}
}

// Literal consumes lit (null, true, false, or any fixed run of bytes) when
// it is next.
func (p *Lexer) Literal(lit string) bool {
	if len(p.b)-p.i < len(lit) || string(p.b[p.i:p.i+len(lit)]) != lit {
		return false
	}
	p.i += len(lit)
	return true
}

// Ignored is what an Object member returns for a key that no field
// takes, whose value it stepped over (SkipValue): such a key may repeat.
const Ignored = ^uint32(0)

// Object decodes one object, calling member with each key once the lexer
// is at its value. member decodes the value and returns the key's bit in
// the object's field set, 0 for a key it does not know. An unknown or
// repeated key fails the document: json.Unmarshal matches keys without
// regard to case and keeps a repeated key's last value, and deciding
// either is its job. A member that knows no field takes the key — one
// that matches none without regard to case either — skips its value and
// returns Ignored.
func (p *Lexer) Object(member func(key []byte) uint32) {
	p.Expect('{')
	if p.bad || p.Skip('}') {
		return
	}
	var seen uint32
	for !p.bad {
		key := p.Str()
		p.Expect(':')
		if p.bad {
			return
		}
		bit := member(key)
		if bit == 0 || (bit != Ignored && seen&bit != 0) {
			p.bad = true
			return
		}
		if bit != Ignored {
			seen |= bit
		}
		if !p.Skip(',') {
			p.Expect('}')
			return
		}
	}
}

// SkipValue steps over one value in the compact layout and returns its
// bytes, holding it to the grammar as strictly as every other read: plain
// strings, RFC 8259 numbers, the three literals, and objects and arrays of
// those no deeper than maxDepth. A number is held to the grammar alone, as
// json.Unmarshal holds a value it skips; a caller that decodes the bytes
// with encoding/json has them converted there.
func (p *Lexer) SkipValue() []byte {
	start := p.i
	p.skipValue(0)
	if p.bad {
		return nil
	}
	return p.b[start:p.i]
}

// maxDepth bounds the nesting SkipValue steps over, far inside the depth
// encoding/json accepts, so a value is never refused for its depth alone
// where json.Unmarshal would take the document holding it.
const maxDepth = 1000

func (p *Lexer) skipValue(depth int) {
	if depth > maxDepth || p.i >= len(p.b) {
		p.bad = true
		return
	}
	switch c := p.b[p.i]; {
	case c == '{':
		p.Object(func([]byte) uint32 {
			p.skipValue(depth + 1)
			return Ignored
		})
	case c == '[':
		p.Array(func() { p.skipValue(depth + 1) })
	case c == '"':
		p.Str()
	case c == '-' || '0' <= c && c <= '9':
		p.i = p.number()
	case !p.Literal("null") && !p.Literal("true") && !p.Literal("false"):
		p.bad = true
	}
}

// Counts decodes a string-to-int object; a repeated key fails the
// document as it does in Object. With keep false the object is read and
// checked alike, and nil is returned.
func (p *Lexer) Counts(keep bool) map[string]int {
	if !keep {
		p.skipCounts()
		return nil
	}
	m := map[string]int{}
	p.Expect('{')
	if p.bad || p.Skip('}') {
		return m
	}
	for !p.bad {
		key := p.Str()
		p.Expect(':')
		v := int(p.Int(0))
		if _, dup := m[string(key)]; dup {
			p.bad = true
		}
		m[string(key)] = v
		if !p.Skip(',') {
			p.Expect('}')
			break
		}
	}
	return m
}

// skipCounts is Counts without the map: the keys it compares for repeats
// are kept on the stack while the object holds no more than 16.
func (p *Lexer) skipCounts() {
	var seen [16][]byte
	keys := seen[:0]
	p.Expect('{')
	if p.bad || p.Skip('}') {
		return
	}
	for !p.bad {
		key := p.Str()
		p.Expect(':')
		p.Int(0)
		for _, k := range keys {
			if bytes.Equal(k, key) {
				p.bad = true
			}
		}
		keys = append(keys, key)
		if !p.Skip(',') {
			p.Expect('}')
			return
		}
	}
}

// Array decodes one array, calling elem at each element.
func (p *Lexer) Array(elem func()) {
	p.Expect('[')
	if p.bad || p.Skip(']') {
		return
	}
	for !p.bad {
		elem()
		if !p.Skip(',') {
			p.Expect(']')
			return
		}
	}
}

// Elems counts the objects between the lexer and the next ']': the exact
// length of an array of flat objects, and only a capacity hint for
// anything else.
func (p *Lexer) Elems() int {
	rest := p.b[p.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return bytes.Count(rest, []byte{'{'})
}

// Str reads a string of plain bytes (no escape, control or non-ASCII
// byte) and returns its contents, which alias the document.
func (p *Lexer) Str() []byte {
	if !p.Skip('"') {
		p.bad = true
		return nil
	}
	b, start := p.b, p.i
	for i := start; i < len(b); i++ {
		if c := b[i]; c == '"' {
			p.i = i + 1
			return b[start:i]
		} else if !PlainByte(c) {
			break
		}
	}
	p.bad = true
	return nil
}

// Bool reads true or false.
func (p *Lexer) Bool() bool {
	switch {
	case p.Literal("true"):
		return true
	case p.Literal("false"):
		return false
	}
	p.bad = true
	return false
}

// Int reads an integer of the given bit size (0: int), taking exactly the
// literals that strconv.ParseInt, which json.Unmarshal uses, takes in
// range. A fraction or an exponent is left where a ',', '}' or ']' must
// follow, which fails the document.
func (p *Lexer) Int(bits int) int64 {
	if bits == 0 {
		bits = strconv.IntSize
	}
	neg := p.Skip('-')
	u, limit := p.natural(), uint64(1)<<(bits-1)
	switch {
	case neg && u <= limit:
		return -int64(u)
	case !neg && u < limit:
		return int64(u)
	}
	p.bad = true
	return 0
}

// Uint is Int for unsigned fields, which take no sign, not even -0
// (strconv.ParseUint refuses it).
func (p *Lexer) Uint(bits int) uint64 {
	if bits == 0 {
		bits = strconv.IntSize
	}
	u := p.natural()
	if bits < 64 && u>>bits != 0 {
		p.bad = true
	}
	return u
}

// natural reads the unsigned digits of an integer in RFC 8259 grammar (0,
// or a nonzero digit and more) that fit a uint64.
func (p *Lexer) natural() uint64 {
	b, i := p.b, p.i
	if i >= len(b) || b[i] < '0' || b[i] > '9' {
		p.bad = true
		return 0
	}
	var u uint64
	if b[i] == '0' {
		i++
	} else {
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			d := uint64(b[i] - '0')
			if u > (math.MaxUint64-d)/10 {
				p.bad = true
				return 0
			}
			u = u*10 + d
		}
	}
	p.i = i
	return u
}

// Float reads a number in RFC 8259 grammar through strconv.ParseFloat, as
// json.Unmarshal does; an out-of-range value fails the document.
func (p *Lexer) Float() float64 {
	end := p.number()
	if p.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(p.b[p.i:end]), 64)
	if err != nil {
		p.bad = true
	}
	p.i = end
	return f
}

// number returns where the number at the lexer ends, failing the document
// when what is there does not follow RFC 8259's grammar.
func (p *Lexer) number() int {
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		p.bad = true
		return p.i
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			p.bad = true
			return p.i
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		start := i
		if i = digits(b, i); i == start {
			p.bad = true
			return p.i
		}
	}
	return i
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// PlainByte reports whether c stands for itself inside a JSON string:
// printable ASCII other than the quote and the backslash.
func PlainByte(c byte) bool { return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' }

// AppendString appends s as encoding/json writes it: printable ASCII that
// needs no escape as is, and every other string through encoding/json, so
// HTML escaping, U+2028/U+2029 and invalid-UTF-8 replacement are its own.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !PlainByte(c) || c == '<' || c == '>' || c == '&' {
			// A string always marshals. Its clone keeps s itself from
			// escaping, so callers' values stay on the stack.
			q, _ := json.Marshal(strings.Clone(s))
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// AppendFloat formats a finite float as encoding/json does: the shortest
// decimal that round-trips, in exponent form only below 1e-6 or from 1e21
// up, with the exponent's leading zero dropped (1e-07 is written 1e-7).
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
