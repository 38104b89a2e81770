package wire

import (
	"bytes"
	"encoding/json"
	"net"
	"reflect"
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
		{},                    // empty payload (length 0 is rejected before decode)
		{200},                 // unknown type code
		{0},                   // escape with no string
		{0, 0},                // escape with empty type string
		{1, 99},               // valid type, unknown field tag
		{2, binUpdates, 0xff}, // truncated uvarint count
		{2, binUpdates, 0x08}, // count exceeding remaining bytes
		{2, binName, 0x20},    // string length beyond payload
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
