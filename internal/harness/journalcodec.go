package harness

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/analytics"
	"repro/internal/classify"
	"repro/internal/inject"
	"repro/internal/jsonlex"
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
// stands. A replay, which shows each experiment's summary alone, decodes
// the same way but keeps nothing else of a record. The tests hold both
// halves to encoding/json as their oracle. The lexer and the appenders
// are jsonlex's, shared with the result decoder (resultcodec.go) and the
// service's event codec.

// journalFallbacks counts, process-wide and like vm's cold-path counters,
// the record lines decodeRecord handed to json.Unmarshal because its fast
// path did not accept them: plan records, a Diag with escapes in it, and
// any line the engine did not write.
var journalFallbacks atomic.Uint64

// replayFallbacks counts the lines ReplayJournal handed to json.Unmarshal:
// a Diag with escapes in it, and any line the engine did not write (its
// fast path takes header and plan lines).
var replayFallbacks atomic.Uint64

// JournalFallbacks returns the process-wide count of journal record lines
// decoded by encoding/json instead of the codec's fast path.
func JournalFallbacks() uint64 { return journalFallbacks.Load() }

// ReplayFallbacks is JournalFallbacks for the lines ReplayJournal decodes.
func ReplayFallbacks() uint64 { return replayFallbacks.Load() }

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
	b = jsonlex.AppendString(b, rec.Kind)
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
	b = jsonlex.AppendFloat(b, s.ContamPct)
	b = append(b, `,"RanksContaminated":`...)
	b = strconv.AppendInt(b, int64(s.RanksContaminated), 10)
	b = append(b, `,"Cycles":`...)
	b = strconv.AppendUint(b, s.Cycles, 10)
	b = append(b, `,"Fit":{"A":`...)
	b = jsonlex.AppendFloat(b, s.Fit.A)
	b = append(b, `,"B":`...)
	b = jsonlex.AppendFloat(b, s.Fit.B)
	b = append(b, `,"Knee":`...)
	b = jsonlex.AppendFloat(b, s.Fit.Knee)
	b = append(b, `,"Plateau":`...)
	b = jsonlex.AppendFloat(b, s.Fit.Plateau)
	b = append(b, `,"R2":`...)
	b = jsonlex.AppendFloat(b, s.Fit.R2)
	b = append(b, `,"ValidationErr":`...)
	b = jsonlex.AppendFloat(b, s.Fit.ValidationErr)
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
		b = jsonlex.AppendString(b, s.Diag)
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
			b = jsonlex.AppendString(b, k)
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
	if decodeFast(line, rec, true) {
		return nil
	}
	journalFallbacks.Add(1)
	*rec = journalRecord{}
	return json.Unmarshal(line, rec)
}

// decodeReplayed is decodeRecord for a reader that shows each record's
// kind and summary alone (ReplayJournal). Its fast path checks trace
// points, spread, per-structure counts and the plan's faults exactly as
// decodeRecord's does but keeps none of them, and takes header and plan
// lines too, whose keys a record's decoding skips. On every line its
// verdict, kind and summary are decodeRecord's, but for the faults when
// the fast path took the line.
func decodeReplayed(line []byte, rec *journalRecord) error {
	*rec = journalRecord{}
	if decodeFast(line, rec, false) {
		return nil
	}
	replayFallbacks.Add(1)
	*rec = journalRecord{}
	return json.Unmarshal(line, rec)
}

// decodeFast decodes an experiment record line in the encoder's compact
// layout, in any key order and with whitespace around the object only;
// with keep false it leaves Points, Spread, StructCML and the plan's
// faults nil and steps over the value of any key that names no record
// field. It reports false, leaving rec partly written, at the first thing
// it cannot decode exactly as json.Unmarshal would.
func decodeFast(line []byte, rec *journalRecord, keep bool) bool {
	p := jsonlex.New(line)
	p.WS()
	p.Object(func(key []byte) uint32 {
		switch string(key) {
		case "kind":
			rec.Kind = kind(&p)
			return 1 << 0
		case "sum":
			decodeSummary(&p, &rec.Sum, keep)
			return 1 << 1
		case "points":
			if keep {
				rec.Points = make([]trace.Point, 0, p.Elems())
			}
			p.Array(func() {
				var pt trace.Point
				p.Object(func(key []byte) uint32 {
					switch string(key) {
					case "Cycles":
						pt.Cycles = p.Int(64)
						return 1 << 0
					case "CML":
						pt.CML = int(p.Int(0))
						return 1 << 1
					}
					return 0
				})
				if keep {
					rec.Points = append(rec.Points, pt)
				}
			})
			return 1 << 2
		case "spread":
			if keep {
				rec.Spread = make([]trace.SpreadPoint, 0, p.Elems())
			}
			p.Array(func() {
				var sp trace.SpreadPoint
				p.Object(func(key []byte) uint32 {
					switch string(key) {
					case "Time":
						sp.Time = p.Int(64)
						return 1 << 0
					case "Ranks":
						sp.Ranks = int(p.Int(0))
						return 1 << 1
					}
					return 0
				})
				if keep {
					rec.Spread = append(rec.Spread, sp)
				}
			})
			return 1 << 3
		case "structCML":
			rec.StructCML = p.Counts(keep)
			return 1 << 4
		}
		if !keep && !recordKey(key) {
			// A header's or a plan's keys: json.Unmarshal skips their
			// values, so the replay only checks them.
			p.SkipValue()
			return jsonlex.Ignored
		}
		return 0
	})
	p.WS()
	return p.Done()
}

// recordKey reports whether json.Unmarshal would decode key's value into
// a journalRecord field: whether it matches a field's name without regard
// to case (the lexer takes plain ASCII keys alone, whose case folding is
// ASCII's).
func recordKey(key []byte) bool {
	for _, name := range []string{"kind", "sum", "points", "spread", "structCML"} {
		if strings.EqualFold(string(key), name) {
			return true
		}
	}
	return false
}

// kind reads the record kind, without allocating for the engine's kinds.
func kind(p *jsonlex.Lexer) string {
	switch s := p.Str(); string(s) {
	case "exp":
		return "exp"
	case "plan":
		return "plan"
	default:
		return string(s)
	}
}

// decodeSummary decodes an ExperimentSummary object: a journal record's
// "sum", or an element of a result's Experiments. With keep false the
// plan's faults are checked alike but not kept.
func decodeSummary(p *jsonlex.Lexer, s *ExperimentSummary, keep bool) {
	p.Object(func(key []byte) uint32 {
		switch string(key) {
		case "ID":
			s.ID = int(p.Int(0))
			return 1 << 0
		case "Plan":
			p.Object(func(key []byte) uint32 {
				if string(key) != "Faults" {
					return 0
				}
				if !p.Literal("null") {
					if keep {
						s.Plan.Faults = make([]inject.Fault, 0, p.Elems())
					}
					p.Array(func() {
						var f inject.Fault
						p.Object(func(key []byte) uint32 {
							switch string(key) {
							case "Rank":
								f.Rank = int(p.Int(0))
								return 1 << 0
							case "Site":
								f.Site = p.Uint(64)
								return 1 << 1
							case "Bit":
								f.Bit = uint(p.Uint(0))
								return 1 << 2
							}
							return 0
						})
						if keep {
							s.Plan.Faults = append(s.Plan.Faults, f)
						}
					})
				}
				return 1
			})
			return 1 << 1
		case "Outcome":
			s.Outcome = classify.Outcome(p.Int(0))
			return 1 << 2
		case "Planned":
			s.Planned = p.Bool()
			return 1 << 3
		case "InjRank":
			s.InjRank = int(p.Int(0))
			return 1 << 4
		case "InjCycle":
			s.InjCycle = p.Uint(64)
			return 1 << 5
		case "Fired":
			s.Fired = p.Bool()
			return 1 << 6
		case "MaxCML":
			s.MaxCML = int(p.Int(0))
			return 1 << 7
		case "TotalPeakCML":
			s.TotalPeakCML = int(p.Int(0))
			return 1 << 8
		case "ContamPct":
			s.ContamPct = p.Float()
			return 1 << 9
		case "RanksContaminated":
			s.RanksContaminated = int(p.Int(0))
			return 1 << 10
		case "Cycles":
			s.Cycles = p.Uint(64)
			return 1 << 11
		case "Fit":
			fit := &s.Fit
			p.Object(func(key []byte) uint32 {
				switch string(key) {
				case "A":
					fit.A = p.Float()
					return 1 << 0
				case "B":
					fit.B = p.Float()
					return 1 << 1
				case "Knee":
					fit.Knee = p.Float()
					return 1 << 2
				case "Plateau":
					fit.Plateau = p.Float()
					return 1 << 3
				case "R2":
					fit.R2 = p.Float()
					return 1 << 4
				case "ValidationErr":
					fit.ValidationErr = p.Float()
					return 1 << 5
				case "Points":
					fit.Points = int(p.Int(0))
					return 1 << 6
				}
				return 0
			})
			return 1 << 12
		case "HasFit":
			s.HasFit = p.Bool()
			return 1 << 13
		case "Stratum":
			s.Stratum = int(p.Int(0))
			return 1 << 14
		case "Pattern":
			pat := new(analytics.Pattern)
			s.Pattern = pat
			p.Object(func(key []byte) uint32 {
				switch string(key) {
				case "site":
					pat.Site = int(p.Int(0))
					return 1 << 0
				case "shape":
					pat.Shape = analytics.Shape(p.Int(0))
					return 1 << 1
				case "cause":
					pat.Cause = analytics.Cause(p.Int(0))
					return 1 << 2
				}
				return 0
			})
			return 1 << 15
		case "Diag":
			s.Diag = string(p.Str())
			return 1 << 16
		}
		return 0
	})
}
