package harness

import (
	"encoding/json"
	"sync/atomic"

	"repro/internal/jsonlex"
)

// A campaign result document is what the daemon archives and serves and
// what its clients decode: json.Marshal of a CampaignResult. Most of it
// is Experiments, the retained summaries, which are the journal's "sum"
// objects, so DecodeResult reads them with the journal codec's summary
// decoder and hands every other top-level field to json.Unmarshal on its
// own bytes, in one pass over the document. Like the journal codec it
// takes only what it can decode exactly as json.Unmarshal would (the
// compact layout, known keys each at most once, plain ASCII strings), and
// hands any other document whole to json.Unmarshal, whose verdict stands.

// resultFallbacks counts the documents DecodeResult handed whole to
// json.Unmarshal: one with whitespace between its tokens, an unknown,
// repeated or differently cased key, a string with an escape or a
// non-ASCII byte, and anything the engine did not write.
var resultFallbacks atomic.Uint64

// ResultFallbacks returns the process-wide count of result documents
// decoded by encoding/json instead of DecodeResult's fast path.
func ResultFallbacks() uint64 { return resultFallbacks.Load() }

// DecodeResult decodes a campaign result document into res, overwriting
// it. The result and the error are json.Unmarshal's into a zero value.
func DecodeResult(data []byte, res *CampaignResult) error {
	*res = CampaignResult{}
	if decodeResultFast(data, res) {
		return nil
	}
	resultFallbacks.Add(1)
	*res = CampaignResult{}
	return json.Unmarshal(data, res)
}

// decodeResultFast decodes a result document in json.Marshal's compact
// layout, with whitespace around the object only. It reports false,
// leaving res partly written, at the first thing it cannot decode exactly
// as json.Unmarshal would.
func decodeResultFast(data []byte, res *CampaignResult) bool {
	p := jsonlex.New(data)
	// field decodes the value at the lexer into v with encoding/json. The
	// lexer has held it to the grammar, so the pieces are valid exactly
	// when the whole document is.
	field := func(v any, bit uint32) uint32 {
		if raw := p.SkipValue(); !p.Bad() && json.Unmarshal(raw, v) != nil {
			p.Fail()
		}
		return bit
	}
	p.WS()
	p.Object(func(key []byte) uint32 {
		switch string(key) {
		case "App":
			return field(&res.App, 1<<0)
		case "Params":
			return field(&res.Params, 1<<1)
		case "Runs":
			return field(&res.Runs, 1<<2)
		case "Golden":
			return field(&res.Golden, 1<<3)
		case "GoldenSites":
			return field(&res.GoldenSites, 1<<4)
		case "AllocatedWords":
			return field(&res.AllocatedWords, 1<<5)
		case "Tally":
			return field(&res.Tally, 1<<6)
		case "Experiments":
			if !p.Literal("null") {
				// Tally, which json.Marshal writes first, sizes the slice;
				// the document's length bounds the hint, since a summary
				// takes well over 64 bytes.
				res.Experiments = make([]ExperimentSummary, 0, max(0, min(res.Tally.Total, len(data)/64)))
				p.Array(func() {
					res.Experiments = append(res.Experiments, ExperimentSummary{})
					decodeSummary(&p, &res.Experiments[len(res.Experiments)-1], true)
				})
			}
			return 1 << 7
		case "Profiles":
			return field(&res.Profiles, 1<<8)
		case "BestSpread":
			return field(&res.BestSpread, 1<<9)
		case "Model":
			return field(&res.Model, 1<<10)
		case "StructTotals":
			return field(&res.StructTotals, 1<<11)
		case "Strata":
			return field(&res.Strata, 1<<12)
		case "Sites":
			return field(&res.Sites, 1<<13)
		}
		return 0
	})
	p.WS()
	return p.Done()
}
