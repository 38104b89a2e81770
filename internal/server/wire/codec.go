package wire

// The binary frame codec. Frames keep the 4-byte big-endian length
// prefix of the v1 protocol; only the payload encoding differs. A binary
// payload is
//
//	type byte | (field tag byte, field value)*
//
// where the type byte indexes a fixed table of frame types (0 is an
// escape: a length-prefixed literal type string follows, so unknown
// frame types survive re-encoding). Integers are varints (zigzag for
// signed fields), strings and raw JSON values are length-prefixed byte
// strings, and composite fields (item maps, event lists, firing/rule/
// health records) are count-prefixed sequences.
//
// The layout is stated once. A coder appends when encoding and reads
// when decoding, so each primitive is one method serving both directions,
// and msgFields says, for each Msg field at the index that is its tag,
// whether a message carries it and how it is coded. Fields at their zero
// value are left out: the decoder's zero is the same zero, so the two
// codecs are value-equivalent (see TestCrossCodecRoundTrip,
// TestEveryMsgFieldCrossesBinary and the fuzz harnesses). The decoder
// takes tags in increasing order only, so a field appears at most once,
// and it refuses whatever the JSON wire could not carry: a string that is
// not UTF-8, a raw value that is not JSON.
//
// Database values still cross the wire in the kind-tagged JSON grammar
// of internal/histio, embedded as opaque byte strings: the durability
// layer, the JSON codec and the binary codec share one lossless value
// encoding, and the binary codec's win — no reflective struct marshal,
// no per-frame map of field names, one buffer reused across frames — is
// exactly the per-frame overhead the JSON codec pays.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"
	"unicode/utf8"
)

// Codec selects a frame payload encoding.
type Codec int

const (
	// CodecJSON is the self-describing v1 payload encoding: one JSON Msg.
	// Every peer speaks it; it is the fallback when negotiation is absent
	// and the debugging default of adbsh.
	CodecJSON Codec = iota
	// CodecBinary is the allocation-light binary payload encoding,
	// negotiated at handshake.
	CodecBinary
)

// Codec names as they appear in hello frames.
const (
	CodecNameJSON   = "json"
	CodecNameBinary = "binary"
)

// String returns the codec's wire name.
func (c Codec) String() string {
	if c == CodecBinary {
		return CodecNameBinary
	}
	return CodecNameJSON
}

// ParseCodec maps a wire name to its codec.
func ParseCodec(name string) (Codec, bool) {
	switch name {
	case CodecNameJSON:
		return CodecJSON, true
	case CodecNameBinary:
		return CodecBinary, true
	}
	return CodecJSON, false
}

// DefaultCodecs is the offer a codec-aware client sends in its hello, in
// preference order.
func DefaultCodecs() []string { return []string{CodecNameBinary, CodecNameJSON} }

// PickCodec implements the server side of negotiation: binary when the
// peer offered it, JSON otherwise (including the legacy empty offer).
func PickCodec(offered []string) Codec {
	for _, name := range offered {
		if name == CodecNameBinary {
			return CodecBinary
		}
	}
	return CodecJSON
}

// frameTypes numbers the frame types. Code 0 escapes to a literal string,
// so a Msg whose T is outside this table (a future frame type crossing an
// old relay, or fuzz-generated input) still round-trips.
var frameTypes = []string{
	1:  TypeHello,
	2:  TypeTxn,
	3:  TypeEmit,
	4:  TypeRule,
	5:  TypeRevive,
	6:  TypeQuery,
	7:  TypeSubscribe,
	8:  TypePing,
	9:  TypeOK,
	10: TypeError,
	11: TypeFiring,
	12: TypeGap,
	13: TypeBye,
	14: TypeReplicate,
	15: TypeWal,
	16: TypeSnap,
}

// msgFields lists Msg's fields, each with whether a message carries it
// (it is not at its zero value) and how it is coded; an entry's index is
// its field's tag. Tags are append-only: a new field takes the next
// index, and no tag is renumbered or reused (TestBinaryFramesGolden pins
// the bytes).
var msgFields = []struct {
	has  func(*Msg) bool
	code func(*coder, *Msg)
}{
	1:  {func(m *Msg) bool { return m.ID != 0 }, func(c *coder, m *Msg) { c.u64(&m.ID) }},
	2:  {func(m *Msg) bool { return m.Proto != "" }, func(c *coder, m *Msg) { c.str(&m.Proto) }},
	3:  {func(m *Msg) bool { return m.Version != 0 }, func(c *coder, m *Msg) { c.int(&m.Version) }},
	4:  {func(m *Msg) bool { return len(m.Codecs) > 0 }, func(c *coder, m *Msg) { list(c, &m.Codecs, (*coder).str) }},
	5:  {func(m *Msg) bool { return m.Codec != "" }, func(c *coder, m *Msg) { c.str(&m.Codec) }},
	6:  {func(m *Msg) bool { return m.TS != 0 }, func(c *coder, m *Msg) { c.i64(&m.TS) }},
	7:  {func(m *Msg) bool { return len(m.Updates) > 0 }, func(c *coder, m *Msg) { c.rawMap(&m.Updates) }},
	8:  {func(m *Msg) bool { return len(m.Deletes) > 0 }, func(c *coder, m *Msg) { list(c, &m.Deletes, (*coder).str) }},
	9:  {func(m *Msg) bool { return len(m.Events) > 0 }, func(c *coder, m *Msg) { list(c, &m.Events, (*coder).event) }},
	10: {func(m *Msg) bool { return m.Name != "" }, func(c *coder, m *Msg) { c.str(&m.Name) }},
	11: {func(m *Msg) bool { return m.Cond != "" }, func(c *coder, m *Msg) { c.str(&m.Cond) }},
	12: {func(m *Msg) bool { return m.Constraint }, func(c *coder, m *Msg) { c.flag(&m.Constraint) }},
	13: {func(m *Msg) bool { return m.Sched != 0 }, func(c *coder, m *Msg) { c.int(&m.Sched) }},
	14: {func(m *Msg) bool { return m.Txn != 0 }, func(c *coder, m *Msg) { c.i64(&m.Txn) }},
	15: {func(m *Msg) bool { return m.What != "" }, func(c *coder, m *Msg) { c.str(&m.What) }},
	16: {func(m *Msg) bool { return m.From != 0 }, func(c *coder, m *Msg) { c.int(&m.From) }},
	17: {func(m *Msg) bool { return m.Code != "" }, func(c *coder, m *Msg) { c.str(&m.Code) }},
	18: {func(m *Msg) bool { return m.Err != "" }, func(c *coder, m *Msg) { c.str(&m.Err) }},
	19: {func(m *Msg) bool { return len(m.Items) > 0 }, func(c *coder, m *Msg) { c.rawMap(&m.Items) }},
	20: {func(m *Msg) bool { return len(m.Firings) > 0 }, func(c *coder, m *Msg) { list(c, &m.Firings, (*coder).firing) }},
	21: {func(m *Msg) bool { return len(m.Rules) > 0 }, func(c *coder, m *Msg) {
		list(c, &m.Rules, func(c *coder, r *RuleJSON) {
			c.str(&r.Name)
			c.str(&r.Condition)
			c.flag(&r.Constraint)
			c.int((*int)(&r.Scheduling))
			list(c, &r.Parameters, (*coder).str)
			c.int(&r.Pending)
		})
	}},
	22: {func(m *Msg) bool { return len(m.Health) > 0 }, func(c *coder, m *Msg) {
		list(c, &m.Health, func(c *coder, h *HealthJSON) {
			c.str(&h.Rule)
			c.flag(&h.Quarantined)
			c.int(&h.Consecutive)
			c.int(&h.Total)
			c.str(&h.LastError)
			c.i64(&h.LastAt)
		})
	}},
	23: {func(m *Msg) bool { return m.Degraded != "" }, func(c *coder, m *Msg) { c.str(&m.Degraded) }},
	24: {func(m *Msg) bool { return m.Firing != nil }, func(c *coder, m *Msg) { ptr(c, &m.Firing, (*coder).firing) }},
	25: {func(m *Msg) bool { return m.Missed != 0 }, func(c *coder, m *Msg) { c.int(&m.Missed) }},
	26: {func(m *Msg) bool { return m.Lsn != 0 }, func(c *coder, m *Msg) { c.i64(&m.Lsn) }},
	27: {func(m *Msg) bool { return m.Epoch != 0 }, func(c *coder, m *Msg) { c.i64(&m.Epoch) }},
	28: {func(m *Msg) bool { return len(m.Wal) > 0 }, func(c *coder, m *Msg) { c.bytes(&m.Wal) }},
	29: {func(m *Msg) bool { return m.Role != "" }, func(c *coder, m *Msg) { c.str(&m.Role) }},
	30: {func(m *Msg) bool { return m.Leader != "" }, func(c *coder, m *Msg) { c.str(&m.Leader) }},
	31: {func(m *Msg) bool { return m.More }, func(c *coder, m *Msg) { c.flag(&m.More) }},
	32: {func(m *Msg) bool { return m.Storage != nil }, func(c *coder, m *Msg) {
		ptr(c, &m.Storage, func(c *coder, s *StorageJSON) {
			c.int(&s.Segments)
			c.i64(&s.WALBytes)
			c.int(&s.Snapshots)
			c.i64(&s.SnapshotBytes)
			c.i64(&s.HeadLSN)
			c.i64(&s.LastLSN)
			c.i64(&s.HistoryWindow)
			c.i64(&s.HistoryFloor)
			c.flag(&s.SpillHistory)
			c.i64(&s.TierRows)
			c.i64(&s.TierBytes)
		})
	}},
}

// appendBinaryMsg appends m's binary payload to c.b.
func appendBinaryMsg(c *coder, m *Msg) {
	c.typ(&m.T)
	for tag, f := range msgFields {
		if f.has != nil && f.has(m) {
			c.b = append(c.b, byte(tag))
			f.code(c, m)
		}
	}
}

// decodeBinaryMsg inverts appendBinaryMsg. A field tag may follow only
// smaller ones: a repeated list would otherwise concatenate and a
// repeated scalar overwrite, where the JSON decoder keeps the last value
// of either.
func decodeBinaryMsg(payload []byte) (*Msg, error) {
	// The table's functions receive the coder through a func value, so it
	// escapes; allocating it with the Msg keeps the two at one allocation.
	d := &struct {
		m Msg
		c coder
	}{c: coder{dec: true, b: payload}}
	m, c := &d.m, &d.c
	c.typ(&m.T)
	if m.T == "" && c.err == nil {
		return nil, fmt.Errorf("wire: frame without a type")
	}
	for last := 0; c.err == nil && c.rem() > 0; {
		switch tag := int(c.byte()); {
		case tag >= len(msgFields) || msgFields[tag].code == nil:
			c.fail("unknown field tag %d", tag)
		case tag <= last:
			c.fail("field tag %d after tag %d", tag, last)
		default:
			msgFields[tag].code(c, m)
			last = tag
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	c.b = nil // the Msg outlives the frame
	return m, nil
}

// coder is the binary codec's one statement of each primitive. Encoding,
// a method appends the value its argument points at to b; decoding (dec),
// it reads b[off:] into that value. A decoding coder checks every bound
// and latches the first error, after which it reads nothing; it never
// panics on garbage input (see FuzzReadFrameBinary). An encoding coder
// only reads what it is handed, so writers may share a Msg.
type coder struct {
	dec bool
	b   []byte
	off int
	err error
}

func (c *coder) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("wire: bad binary frame: "+format, args...)
	}
}

func (c *coder) rem() int { return len(c.b) - c.off }

// byte reads one byte; decoding only.
func (c *coder) byte() byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.b) {
		c.fail("truncated")
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *coder) u64(v *uint64) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, *v)
		return
	}
	if c.err != nil {
		return
	}
	x, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail("bad uvarint at %d", c.off)
		return
	}
	c.off += n
	*v = x
}

func (c *coder) i64(v *int64) {
	if !c.dec {
		c.b = binary.AppendVarint(c.b, *v)
		return
	}
	if c.err != nil {
		return
	}
	x, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.fail("bad varint at %d", c.off)
		return
	}
	c.off += n
	*v = x
}

func (c *coder) int(v *int) {
	x := int64(*v)
	c.i64(&x)
	if c.dec {
		*v = int(x)
	}
}

func (c *coder) flag(v *bool) {
	if c.dec {
		*v = c.byte() != 0
		return
	}
	var x byte
	if *v {
		x = 1
	}
	c.b = append(c.b, x)
}

// span codes a length-prefixed byte string. Decoding, it returns the
// bytes that follow, in place; what names them in the bound error.
func span[T ~string | ~[]byte](c *coder, v T, what string) []byte {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, uint64(len(v)))
		c.b = append(c.b, v...)
		return nil
	}
	var n uint64 // stays 0 once the coder has failed
	c.u64(&n)
	if n > uint64(c.rem()) {
		c.fail("%s of %d bytes exceeds remaining %d", what, n, c.rem())
		return nil
	}
	b := c.b[c.off : c.off+int(n)]
	c.off += int(n)
	return b
}

func (c *coder) str(v *string) {
	b := span(c, *v, "string")
	if !c.dec {
		return
	}
	s := string(b)
	// The JSON wire can only deliver valid UTF-8 (encoding/json sanitizes
	// on both ends); holding binary frames to the same rule keeps every
	// accepted Msg expressible on either codec byte-for-byte.
	if !utf8.ValidString(s) {
		c.fail("string %.32q is not valid UTF-8", s)
		return
	}
	*v = s
}

func (c *coder) raw(v *json.RawMessage) {
	b := span(c, *v, "raw value")
	if len(b) == 0 { // encoding, or an empty value
		return
	}
	// Embedded values must stay in the JSON value grammar: anything this
	// decoder accepts has to re-encode on the JSON wire, and downstream
	// consumers (histio, the evaluator) assume well-formed values.
	if !json.Valid(b) {
		c.fail("raw value is not JSON: %.32q", b)
		return
	}
	*v = append(json.RawMessage(nil), b...)
}

// bytes codes an opaque byte string (no UTF-8 or JSON validation — WAL
// frames are arbitrary bytes; the JSON codec carries them as base64).
func (c *coder) bytes(v *[]byte) {
	if b := span(c, *v, "byte string"); len(b) > 0 {
		*v = append([]byte(nil), b...)
	}
}

// count codes a collection length. A decoded count is bounded by the
// bytes left (every element takes at least one), so a hostile count
// cannot force a huge allocation.
func (c *coder) count(n int) int {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, uint64(n))
		return n
	}
	var u uint64
	c.u64(&u)
	return c.bounded(u)
}

func (c *coder) bounded(n uint64) int {
	if n > uint64(c.rem()) {
		c.fail("count %d exceeds remaining %d bytes", n, c.rem())
		return 0
	}
	return int(n)
}

// maxPrealloc caps the room a decoded count reserves: an element may
// decode to many times its wire size, so past the cap a sequence grows
// as its elements arrive.
const maxPrealloc = 1024

// list codes a count-prefixed sequence, each element by elem. An empty
// sequence decodes to nil.
func list[T any](c *coder, s *[]T, elem func(*coder, *T)) {
	if n := c.count(len(*s)); c.dec && n > 0 {
		*s = decodeSeq(c, n, elem)
		return
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

func decodeSeq[T any](c *coder, n int, elem func(*coder, *T)) []T {
	out := make([]T, 0, min(n, maxPrealloc))
	for i := 0; i < n && c.err == nil; i++ {
		out = append(out, *new(T))
		elem(c, &out[i])
	}
	return out
}

// ptr codes what a non-nil pointer field points at; decoding allocates.
func ptr[T any](c *coder, p **T, code func(*coder, *T)) {
	if c.dec {
		*p = new(T)
	}
	code(c, *p)
}

func (c *coder) rawMap(m *map[string]json.RawMessage) {
	n := c.count(len(*m))
	if !c.dec {
		for k, v := range *m {
			c.str(&k)
			c.raw(&v)
		}
		return
	}
	if n == 0 {
		return
	}
	out := make(map[string]json.RawMessage, min(n, maxPrealloc))
	for i := 0; i < n && c.err == nil; i++ {
		var k string
		var v json.RawMessage
		c.str(&k)
		c.raw(&v)
		out[k] = v
	}
	*m = out
}

// event codes one event record. Its count is presence-encoded — 0 is a
// null record, v a record of v-1 values — so null and empty records,
// both legal JSON, survive the round trip distinctly.
func (c *coder) event(rec *[]json.RawMessage) {
	var n uint64
	if *rec != nil {
		n = uint64(len(*rec)) + 1
	}
	c.u64(&n)
	if !c.dec {
		for i := range *rec {
			c.raw(&(*rec)[i])
		}
		return
	}
	if n > 0 {
		*rec = decodeSeq(c, c.bounded(n-1), (*coder).raw)
	}
}

func (c *coder) firing(f *FiringJSON) {
	c.str(&f.Rule)
	c.i64(&f.Time)
	c.int(&f.State)
	c.int(&f.Seq)
	c.rawMap(&f.Binding)
}

// typ codes the frame type: its index in frameTypes, or the escape 0 and
// the type string (also for the empty type, which sits at index 0).
func (c *coder) typ(t *string) {
	if !c.dec {
		code := max(slices.Index(frameTypes, *t), 0)
		c.b = append(c.b, byte(code))
		if code == 0 {
			c.str(t)
		}
		return
	}
	switch code := int(c.byte()); {
	case code == 0:
		c.str(t)
	case code < len(frameTypes):
		*t = frameTypes[code]
	default:
		c.fail("unknown type code %d", code)
	}
}
