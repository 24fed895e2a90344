package jsonlex

import (
	"encoding/json"
	"testing"
)

// skipSeeds are compact values SkipValue takes whole.
var skipSeeds = []string{
	`{"kind":"plan","round":1,"targetCI":0.25,"allocs":[{"stratum":0,"label":"a/b","ids":[1,2]}],"run":[1,2]}`,
	`[null,true,false,{},[],-0.5e3,1E+2,0,"s",{"a":{"b":[1e400]}}]`,
	`"plain <&> text"`,
	`-12.75e-3`,
}

// TestSkipValueTakesNoMoreThanEncodingJSON: SkipValue takes each seed
// whole, and never takes a whole document — a seed with any one byte
// deleted or replaced by one JSON's grammar turns on — that json.Valid
// refuses.
func TestSkipValueTakesNoMoreThanEncodingJSON(t *testing.T) {
	const subs = `-0.e"\}]x,:{[ n`
	taken := func(doc []byte) bool {
		p := New(doc)
		raw := p.SkipValue()
		if p.Done() && string(raw) != string(doc) {
			t.Fatalf("SkipValue of %q returned %q", doc, raw)
		}
		return p.Done()
	}
	for _, seed := range skipSeeds {
		if !taken([]byte(seed)) {
			t.Errorf("SkipValue does not take %s", seed)
		}
		for i := 0; i < len(seed); i++ {
			muts := [][]byte{append([]byte(seed[:i]), seed[i+1:]...)}
			for _, c := range []byte(subs) {
				mut := []byte(seed)
				mut[i] = c
				muts = append(muts, mut)
			}
			for _, mut := range muts {
				if taken(mut) && !json.Valid(mut) {
					t.Errorf("SkipValue takes %q, which encoding/json refuses", mut)
				}
			}
		}
	}
}
