package harness

import (
	"encoding"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// DecodeResult's oracle is encoding/json: every document gets
// json.Unmarshal's verdict and value.

// resultMirror is CampaignResult without any method it may gain: the
// oracle's own decoding, which no codec can reach.
type resultMirror CampaignResult

// checkResult asserts that DecodeResult and json.Unmarshal agree on data.
func checkResult(t testing.TB, data []byte) {
	t.Helper()
	var want, got CampaignResult
	werr := json.Unmarshal(data, (*resultMirror)(&want))
	gerr := DecodeResult(data, &got)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("decode of %.200q: codec error %v, encoding/json error %v", data, gerr, werr)
	}
	if werr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decode of %.200q:\ncodec         %+v\nencoding/json %+v", data, got, want)
	}
}

// resultFixture is json.Marshal of a small per-site, stratified,
// multi-fault LULESH campaign's result (3 runs, seed 5, SampleEvery 256,
// MultiFaultLambda 0.3), every field of which is filled. It is kept small:
// the fuzzer minimizes every input it finds interesting.
const resultFixture = "testdata/result.json"

func mustResultDoc(t testing.TB) string {
	t.Helper()
	data, err := os.ReadFile(resultFixture)
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSuffix(string(data), "\n")
}

// miniResultDoc is the fixture cut to one experiment and one stratum, and
// with the fields DecodeResult hands to encoding/json whole zeroed: the
// fuzzer's seed, small because it minimizes every input it finds
// interesting.
func miniResultDoc(t testing.TB) string {
	t.Helper()
	var full CampaignResult
	if err := json.Unmarshal([]byte(mustResultDoc(t)), &full); err != nil {
		t.Fatal(err)
	}
	mini := CampaignResult{App: full.App, Runs: full.Runs, Tally: full.Tally,
		Experiments: full.Experiments[:1], StructTotals: full.StructTotals, Strata: full.Strata[:1]}
	data, err := json.Marshal(mini)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// resultEdges edit resultDoc: the first old replaced by new, each with
// the path it must take. The one that moves App appends it last.
var resultEdges = []struct {
	old, new string
	fast     bool
}{
	{"", "", true},
	{`{"App":"LULESH",`, `{`, true},
	{`"App":"LULESH"`, `"App":"a}]<&>"`, true},
	{`"App":"LULESH"`, `"App":"a\"}]\\\u00e9<"`, false},
	{`"Experiments":[`, `"Experiments":null,"X":[`, false},
	{`"Runs":3`, `"Runs":3,"Runs":4`, false},
	{`"Runs":3`, `"Runs":3,"Unknown":{"a":[1,2]}`, false},
	{`"Runs":3`, `"runs":3`, false},
	{`"Runs":3`, `"\u0052uns":3`, false},
	{`"Runs":3`, `"Runs":"3"`, false},
	{`"Runs":3`, `"Runs":1e2`, false},
	{`"Runs":3`, `"Runs": 3`, false},
	{`"Runs":3`, `"Runs":3 `, false},
	{`"Runs":3`, `"Runs":null`, true},
	{`"StructTotals":{`, `"StructTotals":null,"S":{`, false},
	{`"HasFit":false`, `"HasFit":false,"Diag":"a\nb"`, false},
	{`"HasFit":false`, `"HasFit":false,"Diag":"é"`, false},
	{`"HasFit":false`, `"hasFit":false`, false},
	{`"ID":0,`, `"ID":0,"ID":0,`, false},
	{`"Experiments":[`, `"Experiments":[null,`, false},
	{`"Experiments":[`, `"Experiments":[{},`, true},
	{`"Tally":{`, `"Tally":{"Total":1e400,`, false},
}

// resultEdge applies one edge to doc.
func resultEdge(doc, old, new string) string {
	out := strings.Replace(doc, old, new, 1)
	if old == `{"App":"LULESH",` {
		out = strings.TrimSuffix(out, "}") + `,"App":"LULESH"}`
	}
	return out
}

// TestResultDecodeEdges: each edited document — keys reordered,
// duplicated, unknown, differently cased, escaped, spaced or truncated,
// values of every kind — gets json.Unmarshal's verdict and value through
// the path the table names; so does every prefix of the document.
func TestResultDecodeEdges(t *testing.T) {
	doc := mustResultDoc(t)
	keys := []string{`"Pattern":{`, `"Faults":[{`, `"Faults":null`, `"HasFit":true`}
	for _, f := range reflect.VisibleFields(reflect.TypeFor[CampaignResult]()) {
		keys = append(keys, `"`+f.Name+`":`)
	}
	for _, key := range keys {
		if !strings.Contains(doc, key) || strings.Contains(doc, key+"null") {
			t.Fatalf("the result fixture holds no %s: a field is left untried", key)
		}
	}
	for _, doc := range []string{doc, miniResultDoc(t)} {
		for _, e := range resultEdges {
			if !strings.Contains(doc, e.old) {
				t.Fatalf("the result document holds no %q", e.old)
			}
			data := []byte(resultEdge(doc, e.old, e.new))
			before := ResultFallbacks()
			checkResult(t, data)
			if fast := ResultFallbacks() == before; fast != e.fast {
				t.Errorf("%q → %q: fast path %v, want %v", e.old, e.new, fast, e.fast)
			}
		}
	}
	indented, err := json.MarshalIndent(json.RawMessage(doc), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, indented)
	for i := range doc {
		checkResult(t, []byte(doc[:i]))
	}
}

// FuzzResultDecode: any document — the campaign's, edited, truncated or
// mutated — gets json.Unmarshal's verdict and value from DecodeResult.
func FuzzResultDecode(f *testing.F) {
	doc := miniResultDoc(f)
	for _, e := range resultEdges {
		f.Add([]byte(resultEdge(doc, e.old, e.new)))
	}
	f.Add([]byte(doc[:len(doc)/2]))
	f.Add([]byte(`{"App":"x","Experiments":[],"Runs":0}`))
	f.Add([]byte(`{"Experiments":[{"ID":1,"Plan":{"Faults":null},"HasFit":true}],"Tally":{"Counts":[1,0,0,0,0],"Total":1}}`))
	f.Fuzz(func(t *testing.T, data []byte) { checkResult(t, data) })
}

// TestOracleTypesMethodFree: the oracles decode into mirror types, but a
// JSON or text method on any type they hold would still decode the way
// the codecs do. None has one.
func TestOracleTypesMethodFree(t *testing.T) {
	for _, v := range []any{CampaignResult{}, journalRecord{}} {
		assertMethodFree(t, reflect.TypeOf(v), map[reflect.Type]bool{})
	}
}

func assertMethodFree(t *testing.T, typ reflect.Type, seen map[reflect.Type]bool) {
	t.Helper()
	if seen[typ] {
		return
	}
	seen[typ] = true
	for _, iface := range []reflect.Type{
		reflect.TypeFor[json.Marshaler](), reflect.TypeFor[json.Unmarshaler](),
		reflect.TypeFor[encoding.TextMarshaler](), reflect.TypeFor[encoding.TextUnmarshaler](),
	} {
		if typ.Implements(iface) || reflect.PointerTo(typ).Implements(iface) {
			t.Errorf("%v implements %v: the codec oracles would decode through it", typ, iface)
		}
	}
	switch typ.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		assertMethodFree(t, typ.Elem(), seen)
	case reflect.Map:
		assertMethodFree(t, typ.Key(), seen)
		assertMethodFree(t, typ.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				assertMethodFree(t, typ.Field(i).Type, seen)
			}
		}
	}
}

// BenchmarkResultDecode times decoding one result document: the one-pass
// decoder, and the json.Unmarshal every client used before it.
func BenchmarkResultDecode(b *testing.B) {
	data := []byte(mustResultDoc(b))
	var res CampaignResult
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			DecodeResult(data, &res)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res = CampaignResult{}
			json.Unmarshal(data, &res)
		}
	})
}
