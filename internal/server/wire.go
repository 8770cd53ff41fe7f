package server

// The wire codec of the six hot endpoints — /v1/tx, /v1/vertex, /v1/edge,
// /v1/neighbors, /v1/degree and /v1/traverse without explain — used by
// both ends of the API: Server appends responses and decodes transaction
// bodies with it, Client appends transaction bodies and decodes responses.
//
// The format is plain JSON and the encoders' bytes are the bytes
// encoding/json's Encoder produces for the same values (the differential
// tests in wire_test.go are the proof), so the codec is invisible on the
// wire. What it removes is reflection: an encoder is a few appends into a
// pooled buffer, and a decoder is one pass over a fully buffered body that
// knows its schema and sizes its result before filling it — one []int64
// for a frontier, one backing array for every props value of a page.
//
// The decoders accept what encoding/json accepts for the same Go types —
// any member order, any whitespace, unknown members (validated and
// skipped), escaped and case-folded member names, null for any member —
// and return the same values, with two deliberate exceptions: bytes after
// the top-level value are an error (json.Decoder ignores them), and so is
// a known member given twice (encoding/json merges the two in ways no
// sender relies on). Anything malformed is an error, never a panic and
// never a partial result.

import (
	"bytes"
	"encoding/base64"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// maxPooledBuf caps the buffers kept in bufPool: a hub's traversal can
// answer with megabytes, and one such buffer parked per P would count
// against the process for good. Larger buffers are left to the GC.
const maxPooledBuf = 64 << 10

// wireBuf is a pooled byte buffer: responses and transaction bodies are
// appended into b, bodies are read into it.
type wireBuf struct{ b []byte }

var bufPool = sync.Pool{New: func() any { return new(wireBuf) }}

func getBuf() *wireBuf {
	buf := bufPool.Get().(*wireBuf)
	buf.b = buf.b[:0]
	return buf
}

func putBuf(buf *wireBuf) {
	if cap(buf.b) <= maxPooledBuf {
		bufPool.Put(buf)
	}
}

// readFrom reads r to EOF into the buffer. size is the body's declared
// length (-1 when unknown); it is only a sizing hint, and one an untrusted
// peer sets, so it is honoured up to maxPooledBuf and the buffer grows as
// bytes actually arrive past that.
func (buf *wireBuf) readFrom(r io.Reader, size int64) error {
	b := buf.b[:0]
	if want := int(min(size, maxPooledBuf)) + 1; cap(b) < want {
		b = make([]byte, 0, want)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			buf.b = b
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// ---- encoders ----

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's escaping
// (HTML-sensitive characters, invalid UTF-8 and U+2028/9 included).
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				b = append(b, `\ufffd`...)
			case r == '\u2028' || r == '\u2029':
				b = append(b, `\u202`...)
				b = append(b, hexDigits[r&0xF])
			default:
				b = append(b, s[i:i+size]...)
			}
			i += size
			continue
		}
		switch c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '\b':
			b = append(b, '\\', 'b')
		case '\f':
			b = append(b, '\\', 'f')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			if c < 0x20 || c == '<' || c == '>' || c == '&' {
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			} else {
				b = append(b, c)
			}
		}
		i++
	}
	return append(b, '"')
}

// appendBytes appends p as encoding/json does a []byte: null when nil,
// otherwise a base64 string.
func appendBytes(b, p []byte) []byte {
	if p == nil {
		return append(b, "null"...)
	}
	b = append(b, '"')
	b = base64.StdEncoding.AppendEncode(b, p)
	return append(b, '"')
}

// appendOmitZero and appendOmitEmpty append a member, given as its
// comma, name and colon, unless its value is the one omitempty drops.
func appendOmitZero(b []byte, member string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, member...), v, 10)
}

func appendOmitEmpty(b []byte, member string, p []byte) []byte {
	if len(p) == 0 {
		return b
	}
	return appendBytes(append(b, member...), p)
}

// appendInts appends v as a JSON array; a nil v is [] too (every caller's
// slice is either omitted when empty or documented as never null).
func appendInts[T ~int64](b []byte, v []T) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// appendNeighbor appends one element of a neighbors page. b must already
// hold the page's opening '['; the separating comma is added when earlier
// elements follow it. The caller closes the page with "]\n".
func appendNeighbor(b []byte, dst int64, props []byte) []byte {
	if b[len(b)-1] != '[' {
		b = append(b, ',')
	}
	b = append(b, `{"dst":`...)
	b = strconv.AppendInt(b, dst, 10)
	b = appendOmitEmpty(b, `,"props":`, props)
	return append(b, '}')
}

// appendTraverse appends a TraverseResponse without explain.
func appendTraverse[T ~int64](b []byte, epoch int64, vertices []T) []byte {
	b = append(b, `{"epoch":`...)
	b = strconv.AppendInt(b, epoch, 10)
	b = append(b, `,"vertices":`...)
	b = appendInts(b, vertices)
	return append(b, "}\n"...)
}

func appendTxResponse(b []byte, resp TxResponse) []byte {
	b = append(b, '{')
	if len(resp.VertexIDs) > 0 {
		b = append(b, `"vertexIds":`...)
		b = appendInts(b, resp.VertexIDs)
	}
	if resp.Epoch != 0 {
		if len(resp.VertexIDs) > 0 {
			b = append(b, ',')
		}
		b = append(b, `"epoch":`...)
		b = strconv.AppendInt(b, resp.Epoch, 10)
	}
	return append(b, "}\n"...)
}

// appendPayload appends the /v1/vertex and /v1/edge response: one object
// with one base64 member, {"data":...} or {"props":...}.
func appendPayload(b []byte, key string, p []byte) []byte {
	b = append(b, '{', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	b = appendBytes(b, p)
	return append(b, "}\n"...)
}

func appendDegree(b []byte, degree int) []byte {
	b = append(b, `{"degree":`...)
	b = strconv.AppendInt(b, int64(degree), 10)
	return append(b, "}\n"...)
}

// appendTxRequest appends a /v1/tx body (no trailing newline: the client
// sends what json.Marshal returns).
func appendTxRequest(b []byte, ops []Op) []byte {
	if ops == nil {
		return append(b, `{"ops":null}`...)
	}
	b = append(b, `{"ops":[`...)
	for i := range ops {
		op := &ops[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"op":`...)
		b = appendString(b, op.Op)
		b = appendOmitZero(b, `,"id":`, op.ID)
		b = appendOmitZero(b, `,"src":`, op.Src)
		b = appendOmitZero(b, `,"label":`, op.Label)
		b = appendOmitZero(b, `,"dst":`, op.Dst)
		b = appendOmitEmpty(b, `,"data":`, op.Data)
		b = appendOmitEmpty(b, `,"props":`, op.Props)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// ---- decoders ----

// wireError is a decode failure: what was wrong and where.
type wireError struct {
	msg string
	off int
}

func (e *wireError) Error() string {
	return "wire: " + e.msg + " at offset " + strconv.Itoa(e.off)
}

// maxDepth is encoding/json's nesting limit, kept so that a skipped
// member neither recurses without bound nor is accepted here and refused
// there.
const maxDepth = 10000

// dec is a cursor over one fully buffered JSON document. The first
// failure sticks in err and turns every later call into a no-op whose
// loops end, so a decoder reads straight down and checks once, in end.
type dec struct {
	b     []byte
	i     int
	depth int
	err   error
}

func (d *dec) fail(msg string) {
	if d.err == nil {
		d.err = &wireError{msg, d.i}
	}
}

// end requires that only whitespace remains and returns the sticky error.
func (d *dec) end() error {
	if d.ws(); d.i < len(d.b) { // not ws's result: a NUL byte reads as 0 too
		d.fail("data after top-level value")
	}
	return d.err
}

// ws skips whitespace and returns the byte now under the cursor without
// consuming it: 0 at the end of input or after a failure.
func (d *dec) ws() byte {
	if d.err != nil {
		return 0
	}
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\r', '\n':
		default:
			return c
		}
	}
	return 0
}

// expect consumes c (never 0, so the end of input does not match).
func (d *dec) expect(c byte) {
	if d.ws() != c {
		d.fail("expected '" + string(c) + "'")
		return
	}
	d.i++
}

// lit consumes the literal s if it is next.
func (d *dec) lit(s string) bool {
	if d.ws() != s[0] {
		return false
	}
	if rest := d.b[d.i:]; len(rest) < len(s) || string(rest[:len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// null consumes a null if one is next. encoding/json treats null as "leave
// the destination as it is" for every type decoded here.
func (d *dec) null() bool { return d.lit("null") }

// open consumes the opening bracket of an object or array and reports
// whether a first element follows; next, called after each element,
// consumes the separator and reports whether another follows. Both consume
// the closing bracket when they report false.
func (d *dec) open(open, close byte) bool {
	d.expect(open)
	if d.depth++; d.depth > maxDepth {
		d.fail("nesting too deep")
	}
	if d.ws() == close {
		d.i++
		d.depth--
		return false
	}
	return d.err == nil
}

func (d *dec) next(close byte) bool {
	switch d.ws() {
	case ',':
		d.i++
		return true
	case close:
		d.i++
		d.depth--
	default:
		d.fail("expected ',' or '" + string(close) + "'")
	}
	return false
}

// str consumes a string and returns the bytes between its quotes, escapes
// checked but not resolved. plain reports that those bytes are the
// string's value as they stand (printable ASCII, no escape); text
// resolves the other case.
func (d *dec) str() (raw []byte, plain bool) {
	d.expect('"')
	if d.err != nil {
		return nil, false
	}
	start := d.i
	plain = true
	for d.i < len(d.b) {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], plain
		case c == '\\':
			plain = false
			d.i++
			switch {
			case d.i < len(d.b) && strings.IndexByte(`"\/bfnrt`, d.b[d.i]) >= 0:
			case d.i+4 < len(d.b) && d.b[d.i] == 'u' && hex4(d.b[d.i+1:]) >= 0:
				d.i += 4
			default:
				d.fail("bad escape")
				return nil, false
			}
		case c < 0x20:
			d.fail("control character in string")
			return nil, false
		case c >= utf8.RuneSelf:
			plain = false
		}
		d.i++
	}
	d.fail("unterminated string")
	return nil, false
}

// hex4 returns the value of the four hex digits at the front of b, or -1.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquote resolves the escapes of a string str accepted and coerces it to
// valid UTF-8, as encoding/json does: an unpaired surrogate or an invalid
// byte becomes U+FFFD.
func unquote(raw []byte) []byte {
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); {
		c := raw[i]
		if c != '\\' {
			r, size := utf8.DecodeRune(raw[i:])
			out = utf8.AppendRune(out, r)
			i += size
			continue
		}
		c = raw[i+1]
		i += 2
		switch c {
		case 'b':
			c = '\b'
		case 'f':
			c = '\f'
		case 'n':
			c = '\n'
		case 'r':
			c = '\r'
		case 't':
			c = '\t'
		case 'u':
			r := hex4(raw[i:])
			i += 4
			if utf16.IsSurrogate(r) {
				pair := utf8.RuneError
				if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
					pair = utf16.DecodeRune(r, hex4(raw[i+2:]))
				}
				if r = pair; r != utf8.RuneError {
					i += 6
				}
			}
			out = utf8.AppendRune(out, r)
			continue
		}
		out = append(out, c)
	}
	return out
}

// text consumes a string, or a null, and returns the string's value: nil
// for null, otherwise non-nil. The result aliases the document unless the
// string needed unquoting, so callers copy or decode it before returning.
func (d *dec) text() []byte {
	if d.null() {
		return nil
	}
	raw, plain := d.str()
	if d.err != nil || plain {
		return raw
	}
	return unquote(raw)
}

// key consumes a member name and its colon and returns the name's index
// in names, or -1 for a member the schema does not know. seen holds one
// bit per known member of the enclosing object; a repeat is an error.
func (d *dec) key(names []string, seen *uint32) int {
	raw, plain := d.str()
	d.expect(':')
	if d.err != nil {
		return -1
	}
	k := -1
	if plain {
		for i, name := range names {
			if string(raw) == name {
				k = i
				break
			}
		}
	}
	if k < 0 {
		// encoding/json falls back to a case-folded match of the
		// unquoted name. No sender of ours takes this path.
		if !plain {
			raw = unquote(raw)
		}
		for i, name := range names {
			if strings.EqualFold(string(raw), name) {
				k = i
				break
			}
		}
		if k < 0 {
			return -1
		}
	}
	if *seen&(1<<k) != 0 {
		d.fail("duplicate member " + names[k])
	}
	*seen |= 1 << k
	return k
}

// object consumes an object, or a null (no members), calling member with
// the index in names of each member the schema knows, its value next under
// the cursor; the others are validated and skipped.
func (d *dec) object(names []string, member func(k int)) {
	if d.null() {
		return
	}
	var seen uint32
	for more := d.open('{', '}'); more; more = d.next('}') {
		if k := d.key(names, &seen); k >= 0 {
			member(k)
		} else {
			d.skip()
		}
	}
}

// int64 consumes an integer literal into *p; a null leaves *p alone. A
// number with a fraction or an exponent is an error, as it is for
// encoding/json with an int64 destination.
func (d *dec) int64(p *int64) {
	if c := d.ws(); d.err != nil || (c == 'n' && d.null()) {
		return
	}
	b, i := d.b, d.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		// Eighteen digits cannot overflow; only a longer literal is checked.
		if i-start >= 18 && u > (math.MaxUint64-9)/10 {
			d.fail("integer out of range")
			return
		}
		u = u*10 + uint64(b[i]-'0')
	}
	switch {
	case i == start:
		d.fail("expected an integer")
	case b[start] == '0' && i-start > 1:
		d.fail("leading zero")
	case i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E'):
		d.fail("not an integer")
	case neg && u > 1<<63, !neg && u > math.MaxInt64:
		d.fail("integer out of range")
	default:
		d.i = i
		*p = int64(u) // two's complement: 1<<63 negates to MinInt64
		if neg {
			*p = -*p
		}
	}
}

// int64s consumes an array of integers, or a null (nil). The result is
// sized before it is filled: an array of integers holds no bracket and no
// comma but its own, so the commas up to the first ']' count its elements.
func (d *dec) int64s() []int64 {
	if d.null() {
		return nil
	}
	var out []int64
	for more := d.open('[', ']'); more; more = d.next(']') {
		if out == nil {
			rest := d.b[d.i:]
			if end := bytes.IndexByte(rest, ']'); end >= 0 {
				rest = rest[:end]
			}
			out = make([]int64, 0, bytes.Count(rest, comma)+1)
		}
		var v int64
		d.int64(&v)
		out = append(out, v)
	}
	if out == nil && d.err == nil {
		out = []int64{} // "[]" decodes to empty, not nil
	}
	return out
}

var comma, openBrace = []byte{','}, []byte{'{'}

// structHint sizes a slice of structs from the '{'s in the bytes that hold
// them: exact for what our own encoders send, and capped, because the
// bytes may be anyone's and a struct is many times wider than a brace.
// Past the cap append grows the slice as elements actually arrive.
func structHint(b []byte) int { return min(bytes.Count(b, openBrace), 4096) }

// skip consumes and validates one value of any type.
func (d *dec) skip() {
	switch c := d.ws(); {
	case c == '{':
		for more := d.open('{', '}'); more; more = d.next('}') {
			d.str()
			d.expect(':')
			d.skip()
		}
	case c == '[':
		for more := d.open('[', ']'); more; more = d.next(']') {
			d.skip()
		}
	case c == '"':
		d.str()
	case c == '-' || c-'0' <= 9:
		d.number()
	case d.lit("true") || d.lit("false") || d.lit("null"):
	default:
		d.fail("expected a value")
	}
}

// number consumes a JSON number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *dec) number() {
	digits := func() int {
		start := d.i
		for d.i < len(d.b) && d.b[d.i]-'0' <= 9 {
			d.i++
		}
		return d.i - start
	}
	at := func(set string) bool {
		return d.i < len(d.b) && strings.IndexByte(set, d.b[d.i]) >= 0
	}
	if at("-") {
		d.i++
	}
	start := d.i
	if n := digits(); n == 0 || (n > 1 && d.b[start] == '0') {
		d.fail("bad number")
		return
	}
	if at(".") {
		d.i++
		if digits() == 0 {
			d.fail("bad number")
			return
		}
	}
	if at("eE") {
		d.i++
		if at("+-") {
			d.i++
		}
		if digits() == 0 {
			d.fail("bad number")
		}
	}
}

// unbase64 decodes text (base64, as text returned it) into the front of
// *backing and returns the decoded bytes, cut from it with no spare
// capacity. nil text is nil. *backing must have been sized from the texts
// it serves: base64.StdEncoding.DecodedLen of their summed lengths.
func (d *dec) unbase64(text []byte, backing *[]byte) []byte {
	if text == nil || d.err != nil {
		return nil
	}
	win := (*backing)[:base64.StdEncoding.DecodedLen(len(text))]
	n, err := base64.StdEncoding.Decode(win, text)
	if err != nil {
		d.fail("bad base64")
		return nil
	}
	*backing = (*backing)[n:]
	return win[:n:n]
}

var neighborKeys = []string{"dst", "props"}

// decodeNeighbors decodes a /v1/neighbors page. All props values share
// one backing array, each cut to its own length and capacity.
func decodeNeighbors(body []byte) ([]Neighbor, error) {
	d := dec{b: body}
	if d.null() {
		return nil, d.end()
	}
	// The server's pages hold one '{' per element; anything else only
	// makes the hint an over-estimate or lets append grow the slice.
	out := make([]Neighbor, 0, structHint(body))
	textLen := 0
	for more := d.open('[', ']'); more; more = d.next(']') {
		var nb Neighbor
		d.object(neighborKeys, func(k int) {
			if k == 0 {
				d.int64(&nb.Dst)
			} else {
				nb.Props = d.text() // base64 text until the pass below
				textLen += len(nb.Props)
			}
		})
		out = append(out, nb)
	}
	if d.end() == nil {
		backing := make([]byte, base64.StdEncoding.DecodedLen(textLen))
		for i := range out {
			out[i].Props = d.unbase64(out[i].Props, &backing)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return out, nil
}

var traverseKeys = []string{"epoch", "vertices"}

// decodeTraverse decodes a /v1/traverse response, ignoring explain.
func decodeTraverse(body []byte) (epoch int64, vertices []int64, err error) {
	d := dec{b: body}
	d.object(traverseKeys, func(k int) {
		if k == 0 {
			d.int64(&epoch)
		} else {
			vertices = d.int64s()
		}
	})
	if err := d.end(); err != nil {
		return 0, nil, err
	}
	return epoch, vertices, nil
}

var txResponseKeys = []string{"vertexIds", "epoch"}

func decodeTxResponse(body []byte) (TxResponse, error) {
	d := dec{b: body}
	var resp TxResponse
	d.object(txResponseKeys, func(k int) {
		if k == 0 {
			resp.VertexIDs = d.int64s()
		} else {
			d.int64(&resp.Epoch)
		}
	})
	if err := d.end(); err != nil {
		return TxResponse{}, err
	}
	return resp, nil
}

var vertexKeys, edgeKeys = []string{"data"}, []string{"props"}

// decodePayload decodes a /v1/vertex or /v1/edge response; keys names its
// one member (vertexKeys or edgeKeys).
func decodePayload(body []byte, keys []string) ([]byte, error) {
	d := dec{b: body}
	var text []byte
	d.object(keys, func(int) { text = d.text() })
	if d.end() == nil {
		backing := make([]byte, base64.StdEncoding.DecodedLen(len(text)))
		text = d.unbase64(text, &backing)
	}
	if d.err != nil {
		return nil, d.err
	}
	return text, nil
}

var degreeKeys = []string{"degree"}

func decodeDegree(body []byte) (int, error) {
	d := dec{b: body}
	var degree int64
	d.object(degreeKeys, func(int) { d.int64(&degree) })
	if int64(int(degree)) != degree {
		d.fail("degree out of range")
	}
	if err := d.end(); err != nil {
		return 0, err
	}
	return int(degree), nil
}

var (
	txRequestKeys = []string{"ops"}
	opKeys        = []string{"op", "id", "src", "label", "dst", "data", "props"}
)

// opName returns the op string for a decoded name without allocating for
// the names the server executes; any other name is kept as sent, for
// applyOps to refuse by name.
func opName(text []byte) string {
	switch string(text) {
	case "addVertex":
		return "addVertex"
	case "putVertex":
		return "putVertex"
	case "delVertex":
		return "delVertex"
	case "insertEdge":
		return "insertEdge"
	case "upsertEdge":
		return "upsertEdge"
	case "deleteEdge":
		return "deleteEdge"
	}
	return string(text)
}

// decodeTxRequest decodes a /v1/tx body. Every data and props value of the
// request shares one backing array; nothing in the result aliases body.
func decodeTxRequest(body []byte) (TxRequest, error) {
	d := dec{b: body}
	var req TxRequest
	textLen := 0
	d.object(txRequestKeys, func(int) {
		if d.null() {
			return
		}
		req.Ops = make([]Op, 0, structHint(d.b[d.i:]))
		for more := d.open('[', ']'); more; more = d.next(']') {
			var op Op
			d.object(opKeys, func(k int) {
				switch k {
				case 0:
					if text := d.text(); text != nil {
						op.Op = opName(text)
					}
				case 1:
					d.int64(&op.ID)
				case 2:
					d.int64(&op.Src)
				case 3:
					d.int64(&op.Label)
				case 4:
					d.int64(&op.Dst)
				case 5:
					op.Data = d.text() // base64 text until the pass below
					textLen += len(op.Data)
				case 6:
					op.Props = d.text()
					textLen += len(op.Props)
				}
			})
			req.Ops = append(req.Ops, op)
		}
	})
	if d.end() == nil {
		backing := make([]byte, base64.StdEncoding.DecodedLen(textLen))
		for i := range req.Ops {
			op := &req.Ops[i]
			op.Data = d.unbase64(op.Data, &backing)
			op.Props = d.unbase64(op.Props, &backing)
		}
	}
	if d.err != nil {
		return TxRequest{}, d.err
	}
	return req, nil
}
