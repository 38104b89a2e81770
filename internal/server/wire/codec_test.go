package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"os"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// sampleMsgs covers every frame type and every Msg field somewhere, plus
// degenerate shapes (empty msg, unknown type, zero-valued fields).
func sampleMsgs() []*Msg {
	raw := func(s string) json.RawMessage { return json.RawMessage(s) }
	return []*Msg{
		Hello(),
		{T: TypeHello, ID: 1, Proto: ProtoName, Version: Version,
			Codecs: []string{CodecNameBinary, CodecNameJSON}},
		{T: TypeHello, ID: 1, Proto: ProtoName, Version: Version, Codec: CodecNameBinary},
		{T: TypePing, ID: 7},
		{T: TypeTxn, ID: 2, TS: 5,
			Updates: map[string]json.RawMessage{"a": raw(`{"int":3}`), "b": raw(`{"str":"x"}`)},
			Deletes: []string{"c", "d"},
			Events:  [][]json.RawMessage{{raw(`"login"`), raw(`{"str":"u1"}`)}, {raw(`"tick"`)}}},
		{T: TypeEmit, ID: 3, TS: 0, Events: [][]json.RawMessage{{raw(`"e"`)}}},
		{T: TypeRule, ID: 4, Name: "hot", Cond: `item("a") > 5`, Constraint: true, Sched: 2},
		{T: TypeRevive, ID: 5, Name: "hot"},
		{T: TypeQuery, ID: 6, What: "firings", From: 12},
		{T: TypeQuery, ID: 6, What: "db", From: 0},
		{T: TypeSubscribe, ID: 8, From: 0},
		{T: TypeOK, ID: 9, TS: 42, From: 3},
		{T: TypeOK, ID: 10, Items: map[string]json.RawMessage{"a": raw(`{"float":2.5}`)}},
		{T: TypeOK, ID: 11, Firings: []FiringJSON{
			{Rule: "hot", Time: 3, State: 1, Seq: 0},
			{Rule: "crossed", Time: 4, State: 0, Seq: 1,
				Binding: map[string]json.RawMessage{"x": raw(`{"int":9}`)}},
		}},
		{T: TypeOK, ID: 12, Rules: []RuleJSON{
			{Name: "r1", Condition: "c1", Constraint: true, Scheduling: 1,
				Parameters: []string{"x", "y"}, Pending: 2},
			{Name: "r2", Condition: "c2"},
		}},
		{T: TypeOK, ID: 13, Health: []HealthJSON{
			{Rule: "r1", Quarantined: true, Consecutive: 3, Total: 9,
				LastError: "boom", LastAt: 77},
			{Rule: "r2"},
		}, Degraded: "wal: sealed"},
		{T: TypeOK, ID: 21, Storage: goldenStorage()},
		{T: TypeError, ID: 14, Code: CodeConstraint, Err: "constraint monotone violated",
			Name: "monotone", Txn: 0, TS: 0},
		{T: TypeError, ID: 15, Code: CodeDegraded, Err: "degraded"},
		{T: TypeFiring, Firing: &FiringJSON{Rule: "hot", Time: 2, State: 0, Seq: 5}},
		{T: TypeFiring, Firings: []FiringJSON{
			{Rule: "hot", Time: 2, Seq: 5}, {Rule: "hot", Time: 3, Seq: 6}}},
		{T: TypeGap, Missed: 17},
		{T: TypeGap, Missed: 0},
		{T: TypeBye},
		{T: "future-frame-type", ID: 99}, // unknown type survives via the escape code
	}
}

func goldenStorage() *StorageJSON {
	st := &StorageJSON{HistoryWindow: 512, HistoryFloor: 3490, SpillHistory: true,
		TierRows: 3489, TierBytes: 196608}
	st.Segments, st.WALBytes, st.Snapshots, st.SnapshotBytes = 2, 49152, 2, 8111
	st.HeadLSN, st.LastLSN = 1025, 4002
	return st
}

// TestReplyFramesGolden pins the storage, rules and health replies byte
// for byte in both codecs. The frames were written by the commit before
// StorageJSON became adb.StorageStats and RuleJSON.Scheduling an
// adb.Scheduling: one declaration from store to client may not move a
// byte on the wire.
func TestReplyFramesGolden(t *testing.T) {
	msgs := sampleMsgs()
	find := func(id uint64) *Msg {
		for _, m := range msgs {
			if m.T == TypeOK && m.ID == id {
				return m
			}
		}
		t.Fatalf("no sample reply with id %d", id)
		return nil
	}
	bare := &StorageJSON{}
	bare.Segments, bare.WALBytes, bare.LastLSN = 1, 77, 3
	for _, g := range []struct {
		m            *Msg
		json, binary string
	}{
		{find(21),
			"\x00\x00\x01\b" + `{"t":"ok","id":21,"ts":0,"txn":0,"from":0,"missed":0,"storage":{"segments":2,"wal_bytes":49152,"snapshots":2,"snapshot_bytes":8111,"head_lsn":1025,"last_lsn":4002,"history_window":512,"history_floor":3490,"spill_history":true,"tier_rows":3489,"tier_bytes":196608}}`,
			"\x00\x00\x00\x19\t\x01\x15 \x04\x80\x80\x06\x04\xde~\x82\x10\xc4>\x80\b\xc46\x01\xc26\x80\x80\x18"},
		{&Msg{T: TypeOK, ID: 22, Storage: bare},
			"\x00\x00\x00\x98" + `{"t":"ok","id":22,"ts":0,"txn":0,"from":0,"missed":0,"storage":{"segments":1,"wal_bytes":77,"snapshots":0,"snapshot_bytes":0,"head_lsn":0,"last_lsn":3}}`,
			"\x00\x00\x00\x10\t\x01\x16 \x02\x9a\x01\x00\x00\x00\x06\x00\x00\x00\x00\x00"},
		{find(12),
			"\x00\x00\x00\xae" + `{"t":"ok","id":12,"ts":0,"txn":0,"from":0,"rules":[{"name":"r1","cond":"c1","constraint":true,"sched":1,"params":["x","y"],"pending":2},{"name":"r2","cond":"c2"}],"missed":0}`,
			"\x00\x00\x00\x1d\t\x01\f\x15\x02\x02r1\x02c1\x01\x02\x02\x01x\x01y\x04\x02r2\x02c2\x00\x00\x00\x00"},
		{find(13),
			"\x00\x00\x00\xc3" + `{"t":"ok","id":13,"ts":0,"txn":0,"from":0,"health":[{"rule":"r1","quarantined":true,"consecutive":3,"total":9,"last_error":"boom","last_at":77},{"rule":"r2"}],"degraded":"wal: sealed","missed":0}`,
			"\x00\x00\x00'\t\x01\r\x16\x02\x02r1\x01\x06\x12\x04boom\x9a\x01\x02r2\x00\x00\x00\x00\x00\x17\vwal: sealed"},
	} {
		for c, want := range map[Codec]string{CodecJSON: g.json, CodecBinary: g.binary} {
			var buf bytes.Buffer
			if err := WriteFrameC(&buf, g.m, c); err != nil {
				t.Fatal(err)
			}
			if buf.String() != want {
				t.Errorf("%s reply %d:\n got %q\nwant %q", c, g.m.ID, buf.String(), want)
			}
		}
	}
}

// roundTrip pushes m through one codec's write+read path.
func roundTrip(t *testing.T, m *Msg, c Codec) *Msg {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrameC(&buf, m, c); err != nil {
		t.Fatalf("%s encode %+v: %v", c, m, err)
	}
	back, err := ReadFrameC(&buf, c)
	if err != nil {
		t.Fatalf("%s decode %+v: %v", c, m, err)
	}
	return back
}

// canonJSON is the comparison key for cross-codec equivalence: encoding
// a Msg as JSON normalizes the representational slack the codecs are
// allowed to differ in (nil vs empty maps, map iteration order).
func canonJSON(t *testing.T, m *Msg) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal %+v: %v", m, err)
	}
	return string(b)
}

// TestCrossCodecRoundTrip is the cross-codec property test: every Msg
// round-trips JSON -> binary -> JSON identically.
func TestCrossCodecRoundTrip(t *testing.T) {
	for _, m := range sampleMsgs() {
		// Canonicalize through the JSON codec first: the starting point is
		// what a JSON peer would have decoded.
		viaJSON := roundTrip(t, m, CodecJSON)
		viaBinary := roundTrip(t, viaJSON, CodecBinary)
		if got, want := canonJSON(t, viaBinary), canonJSON(t, viaJSON); got != want {
			t.Errorf("msg %q drifted across codecs:\n json:   %s\n binary: %s", m.T, want, got)
		}
		// And the binary codec is a fixpoint of its own round trip.
		again := roundTrip(t, viaBinary, CodecBinary)
		if !reflect.DeepEqual(again, viaBinary) {
			t.Errorf("msg %q binary round trip not stable:\n%+v\n%+v", m.T, viaBinary, again)
		}
	}
}

// TestZeroValueFields is the zero-value audit: a Msg whose
// semantically-load-bearing fields sit at zero must cross both codecs
// without the zero being confused with absence — in particular TS, Txn,
// From and Missed must appear explicitly in the JSON encoding (no
// omitempty), so a ConstraintError at txn 0 or a subscription from index
// 0 is unambiguous on a debugger's screen.
func TestZeroValueFields(t *testing.T) {
	zero := &Msg{T: TypeError, Code: CodeConstraint, Name: "c0", Txn: 0, TS: 0, From: 0, Missed: 0}
	var buf bytes.Buffer
	if err := WriteFrameC(&buf, zero, CodecJSON); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()[4:]
	for _, field := range []string{`"ts":0`, `"txn":0`, `"from":0`, `"missed":0`} {
		if !bytes.Contains(payload, []byte(field)) {
			t.Errorf("JSON frame drops zero-valued field %s: %s", field, payload)
		}
	}
	for _, c := range []Codec{CodecJSON, CodecBinary} {
		back := roundTrip(t, zero, c)
		if back.Txn != 0 || back.TS != 0 || back.From != 0 || back.Missed != 0 ||
			back.Name != "c0" || back.Code != CodeConstraint {
			t.Errorf("%s: zero-valued fields drifted: %+v", c, back)
		}
	}

	// Every field at its zero value at once: the empty-but-typed Msg must
	// round-trip both codecs to the same canonical form.
	for _, c := range []Codec{CodecJSON, CodecBinary} {
		back := roundTrip(t, &Msg{T: TypePing}, c)
		if got, want := canonJSON(t, back), canonJSON(t, &Msg{T: TypePing}); got != want {
			t.Errorf("%s: zero msg drifted: %s vs %s", c, got, want)
		}
	}
}

// TestBinaryRejectsGarbage spot-checks the decoder's bounds discipline
// beyond what the fuzzer explores structurally.
func TestBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},                              // empty payload (length 0 is rejected before decode)
		{200},                           // unknown type code
		{0},                             // escape with no string
		{0, 0},                          // escape with empty type string
		{1, 99},                         // valid type, unknown field tag
		{2, 7, 0xff},                    // Updates: truncated uvarint count
		{2, 7, 0x08},                    // Updates: count exceeding remaining bytes
		{2, 10, 0x20},                   // Name: string length beyond payload
		{2, 8, 1, 1, 'a', 8, 1, 1, 'b'}, // Deletes twice: lists must not concatenate
		{2, 10, 1, 'n', 1, 5},           // Name (tag 10) before ID (tag 1)
	}
	for _, payload := range cases {
		if len(payload) == 0 {
			continue
		}
		if _, err := decodeBinaryMsg(payload); err == nil {
			t.Errorf("garbage payload % x decoded without error", payload)
		}
	}
}

// TestCodecNegotiationHelpers pins the negotiation truth table.
func TestCodecNegotiationHelpers(t *testing.T) {
	cases := []struct {
		offer []string
		want  Codec
	}{
		{nil, CodecJSON},
		{[]string{}, CodecJSON},
		{[]string{"json"}, CodecJSON},
		{[]string{"binary"}, CodecBinary},
		{[]string{"binary", "json"}, CodecBinary},
		{[]string{"json", "binary"}, CodecBinary},
		{[]string{"zstd-frames"}, CodecJSON}, // unknown codecs fall back
	}
	for _, tc := range cases {
		if got := PickCodec(tc.offer); got != tc.want {
			t.Errorf("PickCodec(%v) = %s, want %s", tc.offer, got, tc.want)
		}
	}
	for _, name := range DefaultCodecs() {
		if _, ok := ParseCodec(name); !ok {
			t.Errorf("default offer %q does not parse", name)
		}
	}
	if c, ok := ParseCodec("nope"); ok || c != CodecJSON {
		t.Errorf("ParseCodec(nope) = %v, %v", c, ok)
	}
}

// TestFrameWriterReuse checks the buffer-reusing writer against the
// one-shot path on a real connection, interleaving codecs and sizes.
func TestFrameWriterReuse(t *testing.T) {
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		cs, ss := net.Pipe()
		defer cs.Close()
		defer ss.Close()
		fw := NewFrameWriter(cs, codec)
		if fw.Codec() != codec {
			t.Fatalf("codec = %v", fw.Codec())
		}
		msgs := sampleMsgs()
		go func() {
			for _, m := range msgs {
				if err := fw.Write(m); err != nil {
					return
				}
			}
		}()
		for _, m := range msgs {
			back, err := ReadFrameC(ss, codec)
			if err != nil {
				t.Fatalf("%s: read: %v", codec, err)
			}
			if got, want := canonJSON(t, back), canonJSON(t, roundTrip(t, m, codec)); got != want {
				t.Fatalf("%s: frame drifted through FrameWriter:\n%s\n%s", codec, got, want)
			}
		}
	}
}

// goldenMsgs are the frames testdata/binary_frames.golden holds: every
// sampleMsgs entry with its maps cut to one entry (a longer map is
// written in Go's random order), then the frames sampleMsgs lacks.
func goldenMsgs() []*Msg {
	raw := func(s string) json.RawMessage { return json.RawMessage(s) }
	msgs := sampleMsgs()
	for _, m := range msgs {
		oneEntry(m.Updates)
		oneEntry(m.Items)
		for i := range m.Firings {
			oneEntry(m.Firings[i].Binding)
		}
	}
	return append(msgs,
		&Msg{T: TypeReplicate, ID: 30, Lsn: 5, Epoch: 1},
		&Msg{T: TypeWal, Lsn: 7, Epoch: 2, More: true, Wal: []byte{0xff, 0, 0xfe, 'w'}},
		&Msg{T: TypeSnap, Lsn: 42, Wal: []byte("snapshot chunk")},
		&Msg{T: TypeOK, ID: 31, Role: "follower", Leader: "127.0.0.1:7421"},
		&Msg{T: TypeError, ID: 32, Code: CodeNotPrimary, Err: "not the primary", Leader: "10.0.0.2:7421"},
		&Msg{T: TypeOK, ID: 33, Storage: &StorageJSON{}}, // a memory engine's storage reply
		&Msg{T: TypeEmit, ID: 34, TS: 9,
			Events: [][]json.RawMessage{nil, {}, {raw(`"e"`), raw(`{"int":1}`)}}},
	)
}

// oneEntry deletes all but the least key of m.
func oneEntry(m map[string]json.RawMessage) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys[min(1, len(keys)):] {
		delete(m, k)
	}
}

const binaryGolden = "testdata/binary_frames.golden"

// TestBinaryFramesGolden pins the binary codec byte for byte: goldenMsgs,
// one frame after another, encode to testdata/binary_frames.golden, and
// the file decodes back to them. The file was written by the hand-written
// per-field encoder that msgFields replaced
// (WIRE_WRITE_GOLDEN=1 go test -run TestBinaryFramesGolden).
func TestBinaryFramesGolden(t *testing.T) {
	msgs := goldenMsgs()
	frames := make([][]byte, len(msgs))
	for i, m := range msgs {
		var buf bytes.Buffer
		if err := WriteFrameC(&buf, m, CodecBinary); err != nil {
			t.Fatal(err)
		}
		frames[i] = buf.Bytes()
	}
	if os.Getenv("WIRE_WRITE_GOLDEN") != "" {
		if err := os.WriteFile(binaryGolden, bytes.Join(frames, nil), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(binaryGolden)
	if err != nil {
		t.Fatal(err)
	}
	rest := golden
	for i, frame := range frames {
		if !bytes.HasPrefix(rest, frame) {
			t.Fatalf("frame %d (%s):\n got %q\nwant %q", i, msgs[i].T, frame, rest[:min(len(rest), len(frame))])
		}
		rest = rest[len(frame):]
	}
	if len(rest) > 0 {
		t.Fatalf("golden holds %d bytes past its %d frames", len(rest), len(frames))
	}
	r := bytes.NewReader(golden)
	for i, m := range msgs {
		back, err := ReadFrameC(r, CodecBinary)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got, want := canonJSON(t, back), canonJSON(t, m); got != want {
			t.Errorf("frame %d decoded to\n%s\nwant\n%s", i, got, want)
		}
	}
}

// TestEveryMsgFieldCrossesBinary sets each exported Msg field alone to a
// value that is non-zero down to its leaves, and requires both codecs to
// deliver the same canonical JSON. A field added to Msg, or to a record
// inside it, without a binary coding fails here.
func TestEveryMsgFieldCrossesBinary(t *testing.T) {
	typ := reflect.TypeOf(Msg{})
	empty := canonJSON(t, &Msg{T: TypeOK})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		m := &Msg{T: TypeOK}
		reflect.ValueOf(m).Elem().Field(i).Set(nonZero(f.Type))
		viaJSON := canonJSON(t, roundTrip(t, m, CodecJSON))
		if viaJSON == empty {
			t.Fatalf("field %s: nonZero built a zero value", f.Name)
		}
		if viaBinary := canonJSON(t, roundTrip(t, m, CodecBinary)); viaBinary != viaJSON {
			t.Errorf("field %s:\n binary %s\n json   %s", f.Name, viaBinary, viaJSON)
		}
	}
}

// nonZero builds a value of type t whose every field, element, key and
// pointee is non-zero.
func nonZero(t reflect.Type) reflect.Value {
	v := reflect.New(t).Elem()
	switch {
	case t == reflect.TypeOf(json.RawMessage(nil)):
		v.SetBytes([]byte(`7`))
	case t.Kind() == reflect.Slice && t.Elem().Kind() == reflect.Uint8:
		v.SetBytes([]byte{0xff, 0})
	case t.Kind() == reflect.String:
		v.SetString("x")
	case t.Kind() == reflect.Bool:
		v.SetBool(true)
	case v.CanInt():
		v.SetInt(-7)
	case v.CanUint():
		v.SetUint(7)
	case t.Kind() == reflect.Slice:
		v.Set(reflect.Append(v, nonZero(t.Elem())))
	case t.Kind() == reflect.Map:
		v.Set(reflect.MakeMap(t))
		v.SetMapIndex(nonZero(t.Key()), nonZero(t.Elem()))
	case t.Kind() == reflect.Pointer:
		v.Set(nonZero(t.Elem()).Addr())
	case t.Kind() == reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).IsExported() {
				v.Field(i).Set(nonZero(t.Field(i).Type))
			}
		}
	default:
		panic("nonZero: no value for " + t.String())
	}
	return v
}

// codecFrame is a frame of a served commit and the most allocations its
// decode may take: the counts of the per-field decoder msgFields
// replaced.
type codecFrame struct {
	name         string
	m            *Msg
	decodeAllocs float64
}

// codecFrames are a served commit's frames: the transaction, a push of
// four two-parameter firings (a firing-stream commit) and the ok reply.
func codecFrames() []codecFrame {
	raw := func(s string) json.RawMessage { return json.RawMessage(s) }
	push := &Msg{T: TypeFiring}
	for i := 0; i < 4; i++ {
		push.Firings = append(push.Firings, FiringJSON{Rule: "tick_" + strconv.Itoa(i),
			Time: 1000, State: 999, Seq: 4000 + i,
			Binding: map[string]json.RawMessage{"A": raw(`{"int":3}`), "B": raw(`{"str":"sym7"}`)}})
	}
	txn := &Msg{T: TypeTxn, ID: 77, TS: 1000,
		Updates: map[string]json.RawMessage{"px_IBM": raw(`{"float":101.5}`)},
		Events:  [][]json.RawMessage{{raw(`"tick"`), raw(`{"str":"IBM"}`)}}}
	return []codecFrame{
		{"txn", txn, 9},
		{"push", push, 24},
		{"ok", &Msg{T: TypeOK, ID: 77, TS: 1000}, 1},
	}
}

func binaryPayload(tb testing.TB, m *Msg) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteFrameC(&buf, m, CodecBinary); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()[4:]
}

// TestBinaryCodecAllocs: a FrameWriter's binary write allocates nothing
// once its buffer has grown, and a decode no more than codecFrames says
// (outside -race builds).
func TestBinaryCodecAllocs(t *testing.T) {
	for _, f := range codecFrames() {
		fw := NewFrameWriter(io.Discard, CodecBinary)
		if n := testing.AllocsPerRun(100, func() { _ = fw.Write(f.m) }); n != 0 {
			t.Errorf("%s: FrameWriter.Write allocates %.1f per frame, want 0", f.name, n)
		}
		payload := binaryPayload(t, f.m)
		n := testing.AllocsPerRun(100, func() { _, _ = decodeBinaryMsg(payload) })
		t.Logf("%s: a decode allocates %.0f", f.name, n)
		if n > f.decodeAllocs && !raceEnabled {
			t.Errorf("%s: a decode allocates %.1f, want at most %.0f", f.name, n, f.decodeAllocs)
		}
	}
}

// BenchmarkBinaryCodec times a binary FrameWriter.Write and a decode of
// each of codecFrames.
func BenchmarkBinaryCodec(b *testing.B) {
	for _, f := range codecFrames() {
		payload := binaryPayload(b, f.m)
		b.Run("encode/"+f.name, func(b *testing.B) {
			fw := NewFrameWriter(io.Discard, CodecBinary)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fw.Write(f.m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/"+f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeBinaryMsg(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
