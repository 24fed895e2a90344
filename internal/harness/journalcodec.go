package harness

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"sync/atomic"

	"repro/internal/analytics"
	"repro/internal/classify"
	"repro/internal/inject"
	"repro/internal/trace"
)

// The journal codec owns the checkpoint journal's line format, and
// encoding/json defines it: every line means what json.Unmarshal makes of
// it, and the engine writes what json.Encoder would write. Header and plan
// lines, one per journal or adaptive round, go through encoding/json
// itself. Experiment records, one per experiment and read back by every
// resume, replay and cache-hit stream, go through a hand-written encoder
// with json.Encoder's bytes and a fast decoder that accepts only the lines
// it can decode exactly as json.Unmarshal would (the compact layout, known
// keys each at most once, RFC 8259 numbers, integers in range, plain ASCII
// strings) and hands every other line to json.Unmarshal, whose verdict
// stands. The tests hold both halves to encoding/json as their oracle.

// journalFallbacks counts, process-wide and like vm's cold-path counters,
// the record lines decodeRecord handed to json.Unmarshal because its fast
// path did not accept them: plan records, a Diag with escapes in it, and
// any line the engine did not write.
var journalFallbacks atomic.Uint64

// JournalFallbacks returns the process-wide count of journal record lines
// decoded by encoding/json instead of the codec's fast path.
func JournalFallbacks() uint64 { return journalFallbacks.Load() }

// appendRecord appends rec as one journal line to dst: its header or plan
// payload when one is set, otherwise the experiment record. The bytes and
// the error are json.Encoder's; on error dst is returned unchanged.
func appendRecord(dst []byte, rec *journalRecord) ([]byte, error) {
	s := &rec.Sum
	switch {
	case rec.header != nil:
		return appendJSON(dst, *rec.header)
	case rec.plan != nil:
		return appendJSON(dst, *rec.plan)
	case !finite(s.ContamPct, s.Fit.A, s.Fit.B, s.Fit.Knee, s.Fit.Plateau, s.Fit.R2, s.Fit.ValidationErr):
		// encoding/json refuses NaN and ±Inf; let it say so.
		return appendJSON(dst, *rec)
	}

	b := append(dst, `{"kind":`...)
	b = appendString(b, rec.Kind)
	b = append(b, `,"sum":{"ID":`...)
	b = strconv.AppendInt(b, int64(s.ID), 10)
	b = append(b, `,"Plan":{"Faults":`...)
	if s.Plan.Faults == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, f := range s.Plan.Faults {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"Rank":`...)
			b = strconv.AppendInt(b, int64(f.Rank), 10)
			b = append(b, `,"Site":`...)
			b = strconv.AppendUint(b, f.Site, 10)
			b = append(b, `,"Bit":`...)
			b = strconv.AppendUint(b, uint64(f.Bit), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `},"Outcome":`...)
	b = strconv.AppendInt(b, int64(s.Outcome), 10)
	b = append(b, `,"Planned":`...)
	b = strconv.AppendBool(b, s.Planned)
	b = append(b, `,"InjRank":`...)
	b = strconv.AppendInt(b, int64(s.InjRank), 10)
	b = append(b, `,"InjCycle":`...)
	b = strconv.AppendUint(b, s.InjCycle, 10)
	b = append(b, `,"Fired":`...)
	b = strconv.AppendBool(b, s.Fired)
	b = append(b, `,"MaxCML":`...)
	b = strconv.AppendInt(b, int64(s.MaxCML), 10)
	b = append(b, `,"TotalPeakCML":`...)
	b = strconv.AppendInt(b, int64(s.TotalPeakCML), 10)
	b = append(b, `,"ContamPct":`...)
	b = appendFloat(b, s.ContamPct)
	b = append(b, `,"RanksContaminated":`...)
	b = strconv.AppendInt(b, int64(s.RanksContaminated), 10)
	b = append(b, `,"Cycles":`...)
	b = strconv.AppendUint(b, s.Cycles, 10)
	b = append(b, `,"Fit":{"A":`...)
	b = appendFloat(b, s.Fit.A)
	b = append(b, `,"B":`...)
	b = appendFloat(b, s.Fit.B)
	b = append(b, `,"Knee":`...)
	b = appendFloat(b, s.Fit.Knee)
	b = append(b, `,"Plateau":`...)
	b = appendFloat(b, s.Fit.Plateau)
	b = append(b, `,"R2":`...)
	b = appendFloat(b, s.Fit.R2)
	b = append(b, `,"ValidationErr":`...)
	b = appendFloat(b, s.Fit.ValidationErr)
	b = append(b, `,"Points":`...)
	b = strconv.AppendInt(b, int64(s.Fit.Points), 10)
	b = append(b, `},"HasFit":`...)
	b = strconv.AppendBool(b, s.HasFit)
	if s.Stratum != 0 {
		b = append(b, `,"Stratum":`...)
		b = strconv.AppendInt(b, int64(s.Stratum), 10)
	}
	if p := s.Pattern; p != nil {
		b = append(b, `,"Pattern":{"site":`...)
		b = strconv.AppendInt(b, int64(p.Site), 10)
		b = append(b, `,"shape":`...)
		b = strconv.AppendInt(b, int64(p.Shape), 10)
		b = append(b, `,"cause":`...)
		b = strconv.AppendInt(b, int64(p.Cause), 10)
		b = append(b, '}')
	}
	if s.Diag != "" {
		b = append(b, `,"Diag":`...)
		b = appendString(b, s.Diag)
	}
	b = append(b, '}')
	if len(rec.Points) > 0 {
		b = append(b, `,"points":[`...)
		for i, pt := range rec.Points {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"Cycles":`...)
			b = strconv.AppendInt(b, pt.Cycles, 10)
			b = append(b, `,"CML":`...)
			b = strconv.AppendInt(b, int64(pt.CML), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(rec.Spread) > 0 {
		b = append(b, `,"spread":[`...)
		for i, sp := range rec.Spread {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"Time":`...)
			b = strconv.AppendInt(b, sp.Time, 10)
			b = append(b, `,"Ranks":`...)
			b = strconv.AppendInt(b, int64(sp.Ranks), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(rec.StructCML) > 0 {
		keys := make([]string, 0, len(rec.StructCML))
		for k := range rec.StructCML {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b = append(b, `,"structCML":{`...)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, k)
			b = append(b, ':')
			b = strconv.AppendInt(b, int64(rec.StructCML[k]), 10)
		}
		b = append(b, '}')
	}
	return append(b, "}\n"...), nil
}

// appendJSON appends v as json.Encoder writes it: json.Marshal's bytes and
// a newline.
func appendJSON(dst []byte, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(append(dst, data...), '\n'), nil
}

func finite(fs ...float64) bool {
	for _, f := range fs {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return false
		}
	}
	return true
}

// appendFloat formats a finite float as encoding/json does: the shortest
// decimal that round-trips, in exponent form only below 1e-6 or from 1e21
// up, with the exponent's leading zero dropped (1e-07 is written 1e-7).
func appendFloat(b []byte, f float64) []byte {
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

// appendString writes printable ASCII that needs no escape as is and hands
// every other string to encoding/json, so HTML escaping, U+2028/U+2029 and
// invalid-UTF-8 replacement are its own.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !plainByte(c) || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// plainByte reports whether c stands for itself inside a JSON string:
// printable ASCII other than the quote and the backslash.
func plainByte(c byte) bool { return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' }

// decodeRecord decodes one journal line into rec, overwriting it. When the
// caller sets rec.header — the journal's first line is its header — the
// line is decoded into that header instead. The result and the error are
// json.Unmarshal's into a zero value.
func decodeRecord(line []byte, rec *journalRecord) error {
	if rec.header != nil {
		*rec.header = journalHeader{}
		return json.Unmarshal(line, rec.header)
	}
	*rec = journalRecord{}
	if decodeFast(line, rec) {
		return nil
	}
	journalFallbacks.Add(1)
	*rec = journalRecord{}
	return json.Unmarshal(line, rec)
}

// decodeFast decodes an experiment record line in the encoder's compact
// layout, in any key order and with whitespace around the object only.
// It reports false, leaving rec partly written, at the first thing it
// cannot decode exactly as json.Unmarshal would.
func decodeFast(line []byte, rec *journalRecord) bool {
	p := lineLexer{b: line}
	p.ws()
	p.object(func(key []byte) uint32 {
		switch string(key) {
		case "kind":
			rec.Kind = p.kind()
			return 1 << 0
		case "sum":
			p.summary(&rec.Sum)
			return 1 << 1
		case "points":
			rec.Points = make([]trace.Point, 0, p.elems())
			p.array(func() {
				var pt trace.Point
				p.object(func(key []byte) uint32 {
					switch string(key) {
					case "Cycles":
						pt.Cycles = p.int(64)
						return 1 << 0
					case "CML":
						pt.CML = int(p.int(0))
						return 1 << 1
					}
					return 0
				})
				rec.Points = append(rec.Points, pt)
			})
			return 1 << 2
		case "spread":
			rec.Spread = make([]trace.SpreadPoint, 0, p.elems())
			p.array(func() {
				var sp trace.SpreadPoint
				p.object(func(key []byte) uint32 {
					switch string(key) {
					case "Time":
						sp.Time = p.int(64)
						return 1 << 0
					case "Ranks":
						sp.Ranks = int(p.int(0))
						return 1 << 1
					}
					return 0
				})
				rec.Spread = append(rec.Spread, sp)
			})
			return 1 << 3
		case "structCML":
			rec.StructCML = p.counts()
			return 1 << 4
		}
		return 0
	})
	p.ws()
	return !p.bad && p.i == len(p.b)
}

// summary decodes the "sum" object.
func (p *lineLexer) summary(s *ExperimentSummary) {
	p.object(func(key []byte) uint32 {
		switch string(key) {
		case "ID":
			s.ID = int(p.int(0))
			return 1 << 0
		case "Plan":
			p.object(func(key []byte) uint32 {
				if string(key) != "Faults" {
					return 0
				}
				if !p.literal("null") {
					s.Plan.Faults = make([]inject.Fault, 0, p.elems())
					p.array(func() {
						var f inject.Fault
						p.object(func(key []byte) uint32 {
							switch string(key) {
							case "Rank":
								f.Rank = int(p.int(0))
								return 1 << 0
							case "Site":
								f.Site = p.uint(64)
								return 1 << 1
							case "Bit":
								f.Bit = uint(p.uint(0))
								return 1 << 2
							}
							return 0
						})
						s.Plan.Faults = append(s.Plan.Faults, f)
					})
				}
				return 1
			})
			return 1 << 1
		case "Outcome":
			s.Outcome = classify.Outcome(p.int(0))
			return 1 << 2
		case "Planned":
			s.Planned = p.bool()
			return 1 << 3
		case "InjRank":
			s.InjRank = int(p.int(0))
			return 1 << 4
		case "InjCycle":
			s.InjCycle = p.uint(64)
			return 1 << 5
		case "Fired":
			s.Fired = p.bool()
			return 1 << 6
		case "MaxCML":
			s.MaxCML = int(p.int(0))
			return 1 << 7
		case "TotalPeakCML":
			s.TotalPeakCML = int(p.int(0))
			return 1 << 8
		case "ContamPct":
			s.ContamPct = p.float()
			return 1 << 9
		case "RanksContaminated":
			s.RanksContaminated = int(p.int(0))
			return 1 << 10
		case "Cycles":
			s.Cycles = p.uint(64)
			return 1 << 11
		case "Fit":
			fit := &s.Fit
			p.object(func(key []byte) uint32 {
				switch string(key) {
				case "A":
					fit.A = p.float()
					return 1 << 0
				case "B":
					fit.B = p.float()
					return 1 << 1
				case "Knee":
					fit.Knee = p.float()
					return 1 << 2
				case "Plateau":
					fit.Plateau = p.float()
					return 1 << 3
				case "R2":
					fit.R2 = p.float()
					return 1 << 4
				case "ValidationErr":
					fit.ValidationErr = p.float()
					return 1 << 5
				case "Points":
					fit.Points = int(p.int(0))
					return 1 << 6
				}
				return 0
			})
			return 1 << 12
		case "HasFit":
			s.HasFit = p.bool()
			return 1 << 13
		case "Stratum":
			s.Stratum = int(p.int(0))
			return 1 << 14
		case "Pattern":
			pat := new(analytics.Pattern)
			s.Pattern = pat
			p.object(func(key []byte) uint32 {
				switch string(key) {
				case "site":
					pat.Site = int(p.int(0))
					return 1 << 0
				case "shape":
					pat.Shape = analytics.Shape(p.int(0))
					return 1 << 1
				case "cause":
					pat.Cause = analytics.Cause(p.int(0))
					return 1 << 2
				}
				return 0
			})
			return 1 << 15
		case "Diag":
			s.Diag = string(p.str())
			return 1 << 16
		}
		return 0
	})
}

// lineLexer reads one journal line's JSON in the encoder's compact layout,
// where no whitespace separates tokens. The first token it cannot take
// sets bad; what it reads after that is never used, since the line goes
// to json.Unmarshal.
type lineLexer struct {
	b   []byte
	i   int
	bad bool
}

// ws skips JSON whitespace.
func (p *lineLexer) ws() {
	for p.i < len(p.b) && (p.b[p.i] == ' ' || p.b[p.i] == '\t' || p.b[p.i] == '\n' || p.b[p.i] == '\r') {
		p.i++
	}
}

// skip consumes c when it is the next byte.
func (p *lineLexer) skip(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *lineLexer) expect(c byte) {
	if !p.skip(c) {
		p.bad = true
	}
}

// literal consumes lit (null, true or false) when it is the next token.
func (p *lineLexer) literal(lit string) bool {
	if len(p.b)-p.i < len(lit) || string(p.b[p.i:p.i+len(lit)]) != lit {
		return false
	}
	p.i += len(lit)
	return true
}

// object decodes one object, calling member with each key once the lexer
// is at its value. member decodes the value and returns the key's bit in
// the object's field set, 0 for a key it does not know. An unknown or
// repeated key fails the line: json.Unmarshal matches keys without regard
// to case and keeps a repeated key's last value, and deciding either is
// its job.
func (p *lineLexer) object(member func(key []byte) uint32) {
	p.expect('{')
	if p.bad || p.skip('}') {
		return
	}
	var seen uint32
	for !p.bad {
		key := p.str()
		p.expect(':')
		if p.bad {
			return
		}
		bit := member(key)
		if bit == 0 || seen&bit != 0 {
			p.bad = true
			return
		}
		seen |= bit
		if !p.skip(',') {
			p.expect('}')
			return
		}
	}
}

// counts decodes a string-to-int object; a repeated key fails the line
// as it does in object.
func (p *lineLexer) counts() map[string]int {
	m := map[string]int{}
	p.expect('{')
	if p.bad || p.skip('}') {
		return m
	}
	for !p.bad {
		key := p.str()
		p.expect(':')
		v := int(p.int(0))
		if _, dup := m[string(key)]; dup {
			p.bad = true
		}
		m[string(key)] = v
		if !p.skip(',') {
			p.expect('}')
			break
		}
	}
	return m
}

// array decodes one array, calling elem at each element.
func (p *lineLexer) array(elem func()) {
	p.expect('[')
	if p.bad || p.skip(']') {
		return
	}
	for !p.bad {
		elem()
		if !p.skip(',') {
			p.expect(']')
			return
		}
	}
}

// elems counts the objects between the lexer and the next ']': the exact
// length of an array of flat objects, which the journal's arrays are, and
// only a capacity hint for anything else.
func (p *lineLexer) elems() int {
	rest := p.b[p.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return bytes.Count(rest, []byte{'{'})
}

// str reads a string of plain bytes (no escape, control or non-ASCII
// byte) and returns its contents.
func (p *lineLexer) str() []byte {
	if !p.skip('"') {
		p.bad = true
		return nil
	}
	b, start := p.b, p.i
	for i := start; i < len(b); i++ {
		if c := b[i]; c == '"' {
			p.i = i + 1
			return b[start:i]
		} else if !plainByte(c) {
			break
		}
	}
	p.bad = true
	return nil
}

// kind reads the record kind, without allocating for the engine's kinds.
func (p *lineLexer) kind() string {
	switch s := p.str(); string(s) {
	case "exp":
		return "exp"
	case "plan":
		return "plan"
	default:
		return string(s)
	}
}

func (p *lineLexer) bool() bool {
	switch {
	case p.literal("true"):
		return true
	case p.literal("false"):
		return false
	}
	p.bad = true
	return false
}

// int reads an integer of the given bit size (0: int), taking exactly the
// literals that strconv.ParseInt, which json.Unmarshal uses, takes in
// range. A fraction or an exponent is left where a ',', '}' or ']' must
// follow, which fails the line.
func (p *lineLexer) int(bits int) int64 {
	if bits == 0 {
		bits = strconv.IntSize
	}
	neg := p.skip('-')
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

// uint is int for unsigned fields, which take no sign, not even -0
// (strconv.ParseUint refuses it).
func (p *lineLexer) uint(bits int) uint64 {
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
func (p *lineLexer) natural() uint64 {
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

// float reads a number in RFC 8259 grammar through strconv.ParseFloat, as
// json.Unmarshal does; an out-of-range value fails the line.
func (p *lineLexer) float() float64 {
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
		return 0
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			p.bad = true
			return 0
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
			return 0
		}
	}
	f, err := strconv.ParseFloat(string(b[p.i:i]), 64)
	if err != nil {
		p.bad = true
	}
	p.i = i
	return f
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
