package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"livegraph/internal/core"
)

// The codec's contract is "what encoding/json does for the same Go types",
// so every test here holds it against encoding/json itself.

// jsonEncode is what writeJSON does: Encoder.Encode, trailing newline
// included.
func jsonEncode(t testing.TB, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// edgeInt64s are the integers a formatter or parser is most likely to get
// wrong; random draws mix them in.
var edgeInt64s = []int64{0, 1, -1, 9, 10, 99, 100, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1, 1 << 53}

func randInt64(r *rand.Rand) int64 {
	if r.Intn(4) == 0 {
		return edgeInt64s[r.Intn(len(edgeInt64s))]
	}
	return r.Int63() >> uint(r.Intn(64)) * int64(1-2*r.Intn(2))
}

// randBytes returns nil, empty or random bytes.
func randBytes(r *rand.Rand) []byte {
	switch r.Intn(4) {
	case 0:
		return nil
	case 1:
		return []byte{}
	}
	b := make([]byte, 1+r.Intn(40))
	r.Read(b)
	return b
}

func randInt64s(r *rand.Rand) []int64 {
	switch r.Intn(4) {
	case 0:
		return nil
	case 1:
		return []int64{}
	}
	v := make([]int64, 1+r.Intn(20))
	for i := range v {
		v[i] = randInt64(r)
	}
	return v
}

func randString(r *rand.Rand) string {
	names := []string{"addVertex", "putVertex", "delVertex", "insertEdge", "upsertEdge", "deleteEdge", "", "bogus"}
	if r.Intn(3) > 0 {
		return names[r.Intn(len(names))]
	}
	// Bytes that exercise every escaping rule: quotes, controls, HTML,
	// multi-byte runes, U+2028, invalid UTF-8.
	alphabet := []string{`"`, `\`, "/", "\b", "\f", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "<", ">", "&", "é", "世", "\u2028", "\u2029", "\xff", "\xc3", "😀", "a", "Z"}
	var sb strings.Builder
	for n := r.Intn(8); n > 0; n-- {
		sb.WriteString(alphabet[r.Intn(len(alphabet))])
	}
	return sb.String()
}

func randOps(r *rand.Rand) []Op {
	switch r.Intn(5) {
	case 0:
		return nil
	case 1:
		return []Op{}
	}
	ops := make([]Op, 1+r.Intn(5))
	for i := range ops {
		ops[i] = Op{Op: randString(r), Data: randBytes(r), Props: randBytes(r)}
		for _, p := range []*int64{&ops[i].ID, &ops[i].Src, &ops[i].Label, &ops[i].Dst} {
			if r.Intn(2) == 0 {
				*p = randInt64(r)
			}
		}
	}
	return ops
}

// encodeNeighbors builds a page the way handleNeighbors does.
func encodeNeighbors(page []Neighbor) []byte {
	b := []byte{'['}
	for _, nb := range page {
		b = appendNeighbor(b, nb.Dst, nb.Props)
	}
	return append(b, "]\n"...)
}

// traverseShape is the hot traverse response: TraverseResponse without
// explain.
type traverseShape struct {
	Epoch    int64   `json:"epoch"`
	Vertices []int64 `json:"vertices"`
}

// TestEncodersMatchEncodingJSON: for random values of every hot shape the
// encoder's bytes are encoding/json's, trailing newline included.
func TestEncodersMatchEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	check := func(shape string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %q\nwant %q", shape, got, want)
		}
	}
	for i := 0; i < 2000; i++ {
		page := make([]Neighbor, r.Intn(6))
		for j := range page {
			page[j] = Neighbor{Dst: randInt64(r), Props: randBytes(r)}
		}
		check("neighbors", encodeNeighbors(page), jsonEncode(t, page))

		epoch, vertices := randInt64(r), randInt64s(r)
		if vertices == nil {
			vertices = []int64{} // the handler's frontier is never a JSON null
		}
		ids := make([]core.VertexID, len(vertices))
		for j, v := range vertices {
			ids[j] = core.VertexID(v)
		}
		check("traverse", appendTraverse(nil, epoch, ids), jsonEncode(t, TraverseResponse{Epoch: epoch, Vertices: vertices}))

		resp := TxResponse{VertexIDs: randInt64s(r)}
		if r.Intn(2) == 0 {
			resp.Epoch = randInt64(r)
		}
		check("tx response", appendTxResponse(nil, resp), jsonEncode(t, resp))

		p := randBytes(r)
		check("vertex", appendPayload(nil, "data", p), jsonEncode(t, map[string][]byte{"data": p}))
		check("edge", appendPayload(nil, "props", p), jsonEncode(t, map[string][]byte{"props": p}))

		degree := int(randInt64(r))
		check("degree", appendDegree(nil, degree), jsonEncode(t, map[string]int{"degree": degree}))

		ops := randOps(r)
		want, err := json.Marshal(TxRequest{Ops: ops})
		if err != nil {
			t.Fatal(err)
		}
		check("tx request", appendTxRequest(nil, ops), want)
	}
}

// The decode* helpers below run the codec's decoder and encoding/json on
// one input and fail unless they agree: same error-or-not when mustAgree
// is set, and always the same value when the codec accepts.

func diffNeighbors(t testing.TB, in []byte, mustAgree bool) {
	t.Helper()
	got, err := decodeNeighbors(in)
	var want []Neighbor
	jsonErr := json.Unmarshal(in, &want)
	compare(t, in, mustAgree, err, jsonErr, got, want)
	if total := sumCaps(got, func(nb Neighbor) []byte { return nb.Props }); cap(got) > len(in) || total > len(in) {
		t.Fatalf("%q: %d elements and %d props bytes allocated for %d input bytes", in, cap(got), total, len(in))
	}
}

func diffTraverse(t testing.TB, in []byte, mustAgree bool) {
	t.Helper()
	var got, want traverseShape
	var err error
	got.Epoch, got.Vertices, err = decodeTraverse(in)
	jsonErr := json.Unmarshal(in, &want)
	compare(t, in, mustAgree, err, jsonErr, got, want)
	if cap(got.Vertices) > len(in) {
		t.Fatalf("%q: %d vertices allocated for %d input bytes", in, cap(got.Vertices), len(in))
	}
}

func diffTxRequest(t testing.TB, in []byte, mustAgree bool) {
	t.Helper()
	got, err := decodeTxRequest(in)
	var want TxRequest
	jsonErr := json.Unmarshal(in, &want)
	compare(t, in, mustAgree, err, jsonErr, got, want)
	total := sumCaps(got.Ops, func(op Op) []byte { return op.Data }) + sumCaps(got.Ops, func(op Op) []byte { return op.Props })
	if cap(got.Ops) > len(in) || total > len(in) {
		t.Fatalf("%q: %d ops and %d payload bytes allocated for %d input bytes", in, cap(got.Ops), total, len(in))
	}
}

func sumCaps[T any](s []T, f func(T) []byte) (n int) {
	for _, e := range s {
		n += cap(f(e))
	}
	return n
}

func compare(t testing.TB, in []byte, mustAgree bool, err, jsonErr error, got, want any) {
	t.Helper()
	if err != nil && !reflect.ValueOf(got).IsZero() {
		t.Fatalf("%.80q: partial result %+v returned with error %v", in, got, err)
	}
	switch {
	case err != nil && jsonErr != nil:
	case err != nil:
		if mustAgree {
			t.Fatalf("%.80q: codec refused (%v), encoding/json decoded %+v", in, err, want)
		}
	case jsonErr != nil:
		t.Fatalf("%q: codec accepted %+v, encoding/json refuses: %v", in, got, jsonErr)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%q:\n got %#v\nwant %#v", in, got, want)
	}
}

// TestDecodersMatchEncodingJSON: on every encoder output, and on
// hand-written inputs covering what encoding/json accepts beyond that —
// member order, whitespace, unknown members, nulls, escaped and
// case-folded names, escaped base64 — the decoders return what
// json.Unmarshal returns.
func TestDecodersMatchEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 2000; i++ {
		page := make([]Neighbor, r.Intn(6))
		for j := range page {
			page[j] = Neighbor{Dst: randInt64(r), Props: randBytes(r)}
		}
		diffNeighbors(t, encodeNeighbors(page), true)
		diffTraverse(t, appendTraverse(nil, randInt64(r), randInt64s(r)), true)
		diffTxRequest(t, appendTxRequest(nil, randOps(r)), true)

		resp := TxResponse{VertexIDs: randInt64s(r), Epoch: randInt64(r) * int64(r.Intn(2))}
		in := appendTxResponse(nil, resp)
		got, err := decodeTxResponse(in)
		var want TxResponse
		jsonErr := json.Unmarshal(in, &want)
		compare(t, in, true, err, jsonErr, got, want)

		for _, keys := range [][]string{vertexKeys, edgeKeys} {
			in := appendPayload(nil, keys[0], randBytes(r))
			got, err := decodePayload(in, keys)
			var want map[string][]byte
			jsonErr := json.Unmarshal(in, &want)
			compare(t, in, true, err, jsonErr, got, want[keys[0]])
		}

		in = appendDegree(nil, int(randInt64(r)))
		degree, err := decodeDegree(in)
		var wantDegree struct {
			Degree int `json:"degree"`
		}
		jsonErr = json.Unmarshal(in, &wantDegree)
		compare(t, in, true, err, jsonErr, degree, wantDegree.Degree)
	}

	for _, in := range []string{
		`{"epoch":7,"vertices":[1,2,3]}`,
		" {\t\"vertices\" : [ 1 ,\n2 ] ,\r\n \"epoch\" : 7 } \n",
		`{"vertices":[]}`, `{"vertices":null,"epoch":null}`, `{}`, `null`, ` null `,
		`{"epoch":7,"explain":{"hops":[{"kind":"out","x":[1.5e3,-0.1,true,false,null,"s\u00e9\n"]}]},"vertices":[4]}`,
		`{"epoch":7,"vertices":[4],"explain":{"hops":[{"step":0,"kind":"out","direction":"bottomup","indexBuildUs":1250,"parallel":false}],"executed":true}}`,
		`{"Epoch":7,"VERTICES":[1]}`, `{"\u0065poch":7,"vertice\u017f":[2]}`, `{"epoch\u0000":1}`,
		`{"vertices":[null,1,-0]}`, `{"epoch":-9223372036854775808,"vertices":[9223372036854775807]}`,
		`{"other":{"vertices":[1,2]},"vertices":[3]}`, `{"a":"]","vertices":[1,2,3]}`,
	} {
		diffTraverse(t, []byte(in), true)
	}
	for _, in := range []string{
		`[]`, `null`, `[{"dst":1},{"dst":2,"props":"YWJj"}]`, `[{"props":"","dst":3}]`, `[{"props":null}]`,
		`[null,{}]`, ` [ { "dst" : 1 , "props" : "YQ==" } ] `, `[{"dst":1,"props":"YQ\u003d\u003d"}]`,
		`[{"dst":1,"props":"YW\nJj"}]`, `[{"dst":1,"props":"YW\\nJj"}]`, `[{"DST":1,"Props":"YQ=="}]`, `[{"d\u0073t":5}]`,
		`[{"dst":1,"since":{"a":[{}]}}]`, `[{"dst":1},{"x":"{{{{"}]`,
	} {
		diffNeighbors(t, []byte(in), true)
	}
	for _, in := range []string{
		`{"ops":[{"op":"addVertex","data":"YQ=="},{"op":"insertEdge","src":1,"label":2,"dst":3,"props":"Yg=="}]}`,
		`{"ops":[]}`, `{"ops":null}`, `{}`, `null`, `{"ops":[null,{}]}`, `{"ops":[{"op":null,"id":null,"data":null}]}`,
		`{"ops":[{"op":"we\"ird\u00e9\ud83d\ude00\ud83d"}]}`, "{\"ops\":[{\"op\":\"\xff\"}]}", `{"OPS":[{"OP":"x","ID":4}]}`,
		`{"ops":[{"op":"putVertex","id":7,"data":""}],"note":"x"}`,
	} {
		diffTxRequest(t, []byte(in), true)
	}
}

// TestDecodersRefuseMalformed: anything malformed is an error with a zero
// result. Every input is one encoding/json refuses too, except the two
// documented differences: trailing data (a json.Decoder ignores it) and a
// repeated known member.
func TestDecodersRefuseMalformed(t *testing.T) {
	traverse := []string{
		``, ` `, `{`, `{"epoch"`, `{"epoch":`, `{"epoch":1`, `{"epoch":1,`, `{"epoch":1,}`, `{"epoch" 1}`, `{epoch:1}`,
		`{"epoch":1.0}`, `{"epoch":1e3}`, `{"epoch":"1"}`, `{"epoch":01}`, `{"epoch":-}`, `{"epoch":+1}`, `{"epoch":9223372036854775808}`,
		`{"epoch":-9223372036854775809}`, `{"epoch":99999999999999999999}`, `{"epoch":nul}`, `{"epoch":nulll}`,
		`{"vertices":[1,]}`, `{"vertices":[,1]}`, `{"vertices":[1 2]}`, `{"vertices":[1`, `{"vertices":{}}`, `{"vertices":[1.5]}`, `{"vertices":["1"]}`,
		`[1]`, `7`, `"x"`, `true`, `{"x":tru}`, `{"x":.5}`, `{"x":1.}`, `{"x":1e}`, `{"x":-01}`, `{"x":"\x"}`, `{"x":"\u12g4"}`, `{"x":"\u12"}`,
		"{\"x\":\"a\nb\"}", `{"x":"unterminated}`, `{"x":[}`, `{"x":{]}`, `{"x":{"a"}}`, `{"x":{1:2}}`, "\xef\xbb\xbf{}", "{}\x00",
		strings.Repeat("[", 20000), `{"x":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`,
	}
	for _, in := range traverse {
		if _, _, err := decodeTraverse([]byte(in)); err == nil {
			t.Errorf("decodeTraverse accepted %.60q", in)
		}
		diffTraverse(t, []byte(in), true)
	}
	for _, in := range []string{`[{"dst":1,"props":"YQ="}]`, `[{"dst":1,"props":"!!!!"}]`, `[{"dst":1,"props":5}]`, `[{"dst":1}`, `[{"dst":1},]`, `{"dst":1}`, `[[]]`, `[1]`} {
		if _, err := decodeNeighbors([]byte(in)); err == nil {
			t.Errorf("decodeNeighbors accepted %q", in)
		}
		diffNeighbors(t, []byte(in), true)
	}
	for _, in := range []string{`{"ops":{}}`, `{"ops":[{"op":5}]}`, `{"ops":[{"id":1.5}]}`, `{"ops":[{"id":"7"}]}`, `{"ops":[{"data":"%%%"}]}`, `{"ops":[{"op":"addVertex"}]`, `[]`} {
		if _, err := decodeTxRequest([]byte(in)); err == nil {
			t.Errorf("decodeTxRequest accepted %q", in)
		}
		diffTxRequest(t, []byte(in), true)
	}
	// The two deliberate differences.
	for _, in := range []string{`{"epoch":1}x`, `{"epoch":1}{}`, `{"epoch":1,"epoch":2}`, `{"vertices":[1],"VERTICES":[2]}`} {
		if _, _, err := decodeTraverse([]byte(in)); err == nil {
			t.Errorf("decodeTraverse accepted %q", in)
		}
	}
	if _, err := decodeTxRequest([]byte(`{"ops":[{"op":"addVertex"}]}garbage`)); err == nil {
		t.Error("decodeTxRequest accepted trailing garbage")
	}
	if _, err := decodeNeighbors([]byte(`[{"dst":1,"dst":2}]`)); err == nil {
		t.Error("decodeNeighbors accepted a repeated member")
	}
	// A degree that is a valid int64 everywhere int is 64 bits wide; the
	// point is that the range check exists and does not trip on them.
	if d, err := decodeDegree([]byte(`{"degree":2147483648}`)); err != nil || d != 1<<31 {
		t.Errorf("decodeDegree: %d, %v", d, err)
	}
}

// TestDecodeAllocationBounded: no body — all commas, braces or brackets to
// inflate a size hint, or the smallest well-formed elements there are —
// makes a decoder allocate more than a fixed multiple of its length. The
// multiple is set by the widest element, Op (96 bytes for the three of
// "{},"), times the five-fold total of append growing a large slice by a
// quarter at a time; encoding/json pays the same.
func TestDecodeAllocationBounded(t *testing.T) {
	const n = 1 << 20
	decoders := map[string]func([]byte){
		"traverse":  func(b []byte) { decodeTraverse(b) },
		"neighbors": func(b []byte) { decodeNeighbors(b) },
		"txRequest": func(b []byte) { decodeTxRequest(b) },
	}
	for _, prefix := range []string{"", `{"vertices":[`, `[`, `{"ops":[`} {
		for _, unit := range []string{",", "{", "[", `"`, "1,", "{},", "null,", `{"dst":1},`, `{"x":[`} {
			in := []byte(prefix + strings.Repeat(unit, n/len(unit)))
			for name, decode := range decoders {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				decode(in)
				runtime.ReadMemStats(&after)
				if got := after.TotalAlloc - before.TotalAlloc; got > 200*uint64(len(in)) {
					t.Errorf("%s on %q + %d x %q allocated %d bytes", name, prefix, n/len(unit), unit, got)
				}
			}
		}
	}
}

func FuzzDecodeTraverse(f *testing.F) {
	for _, s := range []string{`{"epoch":7,"vertices":[1,2,3]}`, `{"vertices":[],"explain":{"a":[1.5,"x"]}}`, `null`, `{"Epoch":1,"vertices":[null]}`, `{"\u0065poch":-1}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) { diffTraverse(t, in, false) })
}

func FuzzDecodeNeighbors(f *testing.F) {
	for _, s := range []string{`[{"dst":1,"props":"YWJj"},{"dst":2}]`, `[]`, `[null,{"props":"YQ\u003d\u003d"}]`, `[{"DST":1,"x":{"y":[]}}]`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) { diffNeighbors(t, in, false) })
}

func FuzzDecodeTxRequest(f *testing.F) {
	for _, s := range []string{`{"ops":[{"op":"addVertex","data":"YQ=="},{"op":"insertEdge","src":1,"label":2,"dst":3,"props":"Yg=="}]}`, `{"ops":null}`, `{"ops":[{"op":"\u00e9\ud83d","id":-1}]}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) { diffTxRequest(t, in, false) })
}
