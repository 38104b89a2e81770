package wire

// The binary frame codec. Frames keep the 4-byte big-endian length
// prefix of the v1 protocol; only the payload encoding changes. A binary
// payload is
//
//	type byte | (field tag byte, field value)*
//
// where the type byte indexes a fixed table of frame types (0 is an
// escape: a length-prefixed literal type string follows, so unknown
// frame types survive re-encoding). Integers are varints (zigzag for
// signed fields), strings and raw JSON values are length-prefixed byte
// strings, and composite fields (item maps, event lists, firing/rule/
// health records) are count-prefixed sequences. Fields at their zero
// value are skipped — the decoder's zero is the same zero, so the two
// codecs are value-equivalent (see TestCrossCodecRoundTrip and the fuzz
// harnesses).
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
	"io"
	"unicode/utf8"

	"ptlactive/internal/adb"
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

// WriteFrameC encodes m in codec c and writes one length-prefixed frame.
// One-shot form of FrameWriter.Write; hot paths should hold a FrameWriter
// to reuse its buffer.
func WriteFrameC(w io.Writer, m *Msg, c Codec) error {
	fw := FrameWriter{w: w, codec: c}
	return fw.Write(m)
}

// ReadFrameC reads one frame whose payload is in codec c. Error contract
// is that of ReadFrame.
func ReadFrameC(r io.Reader, c Codec) (*Msg, error) {
	if c == CodecJSON {
		return ReadFrame(r)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("wire: torn frame header: %w", err)
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrame {
		return nil, fmt.Errorf("wire: frame length %d out of range (1..%d)", n, MaxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wire: torn frame payload: %w", err)
	}
	return decodeBinaryMsg(payload)
}

// FrameWriter writes frames in one codec, reusing an internal buffer
// across writes so steady-state encoding allocates nothing for the frame
// itself. It is not safe for concurrent use; callers serialize (the
// client's write mutex, the session's single writer goroutine).
type FrameWriter struct {
	w     io.Writer
	codec Codec
	buf   []byte
}

// NewFrameWriter returns a FrameWriter over w in codec c.
func NewFrameWriter(w io.Writer, c Codec) *FrameWriter {
	return &FrameWriter{w: w, codec: c}
}

// SetCodec switches the payload encoding (after handshake negotiation).
func (fw *FrameWriter) SetCodec(c Codec) { fw.codec = c }

// Codec reports the current payload encoding.
func (fw *FrameWriter) Codec() Codec { return fw.codec }

// Write encodes m and writes one length-prefixed frame.
func (fw *FrameWriter) Write(m *Msg) error {
	fw.buf = append(fw.buf[:0], 0, 0, 0, 0)
	if fw.codec == CodecBinary {
		fw.buf = appendBinaryMsg(fw.buf, m)
	} else {
		payload, err := json.Marshal(m)
		if err != nil {
			return fmt.Errorf("wire: encode %s frame: %w", m.T, err)
		}
		fw.buf = append(fw.buf, payload...)
	}
	n := len(fw.buf) - 4
	if n > MaxFrame {
		return fmt.Errorf("wire: %s frame of %d bytes exceeds MaxFrame %d", m.T, n, MaxFrame)
	}
	binary.BigEndian.PutUint32(fw.buf[:4], uint32(n))
	_, err := fw.w.Write(fw.buf)
	// One oversized frame (a big query response) must not pin its buffer
	// for the life of the connection.
	if cap(fw.buf) > 1<<20 {
		fw.buf = nil
	}
	return err
}

// Frame type codes. 0 escapes to a literal string so a Msg whose T is
// outside this table (a future frame type crossing an old relay, or
// fuzz-generated input) still round-trips.
var typeCodes = map[string]byte{
	TypeHello:     1,
	TypeTxn:       2,
	TypeEmit:      3,
	TypeRule:      4,
	TypeRevive:    5,
	TypeQuery:     6,
	TypeSubscribe: 7,
	TypePing:      8,
	TypeOK:        9,
	TypeError:     10,
	TypeFiring:    11,
	TypeGap:       12,
	TypeBye:       13,
	TypeReplicate: 14,
	TypeWal:       15,
	TypeSnap:      16,
}

var typeNames = func() map[byte]string {
	m := make(map[byte]string, len(typeCodes))
	for name, code := range typeCodes {
		m[code] = name
	}
	return m
}()

// Field tags of the binary Msg encoding. Tags are append-only: a new
// field gets a new tag, old tags are never reused.
const (
	binID byte = iota + 1
	binProto
	binVersion
	binCodecs
	binCodec
	binTS
	binUpdates
	binDeletes
	binEvents
	binName
	binCond
	binConstraint
	binSched
	binTxn
	binWhat
	binFrom
	binCode
	binErr
	binItems
	binFirings
	binRules
	binHealth
	binDegraded
	binFiring
	binMissed
	binLsn
	binEpoch
	binWal
	binRole
	binLeader
	binMore
	binStorage
)

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendRaw(b []byte, r json.RawMessage) []byte {
	b = binary.AppendUvarint(b, uint64(len(r)))
	return append(b, r...)
}

func appendRawMap(b []byte, m map[string]json.RawMessage) []byte {
	b = binary.AppendUvarint(b, uint64(len(m)))
	for k, v := range m {
		b = appendString(b, k)
		b = appendRaw(b, v)
	}
	return b
}

func appendFiring(b []byte, f *FiringJSON) []byte {
	b = appendString(b, f.Rule)
	b = binary.AppendVarint(b, f.Time)
	b = binary.AppendVarint(b, int64(f.State))
	b = binary.AppendVarint(b, int64(f.Seq))
	b = appendRawMap(b, f.Binding)
	return b
}

// appendBinaryMsg renders m in the binary payload encoding. Fields at
// their zero value are skipped; the decoder's zero restores them.
func appendBinaryMsg(b []byte, m *Msg) []byte {
	if code, ok := typeCodes[m.T]; ok {
		b = append(b, code)
	} else {
		b = append(b, 0)
		b = appendString(b, m.T)
	}
	if m.ID != 0 {
		b = append(b, binID)
		b = binary.AppendUvarint(b, m.ID)
	}
	if m.Proto != "" {
		b = append(b, binProto)
		b = appendString(b, m.Proto)
	}
	if m.Version != 0 {
		b = append(b, binVersion)
		b = binary.AppendVarint(b, int64(m.Version))
	}
	if len(m.Codecs) > 0 {
		b = append(b, binCodecs)
		b = binary.AppendUvarint(b, uint64(len(m.Codecs)))
		for _, name := range m.Codecs {
			b = appendString(b, name)
		}
	}
	if m.Codec != "" {
		b = append(b, binCodec)
		b = appendString(b, m.Codec)
	}
	if m.TS != 0 {
		b = append(b, binTS)
		b = binary.AppendVarint(b, m.TS)
	}
	if len(m.Updates) > 0 {
		b = append(b, binUpdates)
		b = appendRawMap(b, m.Updates)
	}
	if len(m.Deletes) > 0 {
		b = append(b, binDeletes)
		b = binary.AppendUvarint(b, uint64(len(m.Deletes)))
		for _, name := range m.Deletes {
			b = appendString(b, name)
		}
	}
	if len(m.Events) > 0 {
		b = append(b, binEvents)
		b = binary.AppendUvarint(b, uint64(len(m.Events)))
		for _, rec := range m.Events {
			// The inner count is presence-encoded (0 = null record, v = a
			// record of v-1 values) so null and empty records — both legal
			// JSON — survive the round trip distinctly.
			if rec == nil {
				b = append(b, 0)
				continue
			}
			b = binary.AppendUvarint(b, uint64(len(rec))+1)
			for _, raw := range rec {
				b = appendRaw(b, raw)
			}
		}
	}
	if m.Name != "" {
		b = append(b, binName)
		b = appendString(b, m.Name)
	}
	if m.Cond != "" {
		b = append(b, binCond)
		b = appendString(b, m.Cond)
	}
	if m.Constraint {
		b = append(b, binConstraint, 1)
	}
	if m.Sched != 0 {
		b = append(b, binSched)
		b = binary.AppendVarint(b, int64(m.Sched))
	}
	if m.Txn != 0 {
		b = append(b, binTxn)
		b = binary.AppendVarint(b, m.Txn)
	}
	if m.What != "" {
		b = append(b, binWhat)
		b = appendString(b, m.What)
	}
	if m.From != 0 {
		b = append(b, binFrom)
		b = binary.AppendVarint(b, int64(m.From))
	}
	if m.Code != "" {
		b = append(b, binCode)
		b = appendString(b, m.Code)
	}
	if m.Err != "" {
		b = append(b, binErr)
		b = appendString(b, m.Err)
	}
	if len(m.Items) > 0 {
		b = append(b, binItems)
		b = appendRawMap(b, m.Items)
	}
	if len(m.Firings) > 0 {
		b = append(b, binFirings)
		b = binary.AppendUvarint(b, uint64(len(m.Firings)))
		for i := range m.Firings {
			b = appendFiring(b, &m.Firings[i])
		}
	}
	if len(m.Rules) > 0 {
		b = append(b, binRules)
		b = binary.AppendUvarint(b, uint64(len(m.Rules)))
		for i := range m.Rules {
			r := &m.Rules[i]
			b = appendString(b, r.Name)
			b = appendString(b, r.Condition)
			if r.Constraint {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
			b = binary.AppendVarint(b, int64(r.Scheduling))
			b = binary.AppendUvarint(b, uint64(len(r.Parameters)))
			for _, p := range r.Parameters {
				b = appendString(b, p)
			}
			b = binary.AppendVarint(b, int64(r.Pending))
		}
	}
	if len(m.Health) > 0 {
		b = append(b, binHealth)
		b = binary.AppendUvarint(b, uint64(len(m.Health)))
		for i := range m.Health {
			h := &m.Health[i]
			b = appendString(b, h.Rule)
			if h.Quarantined {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
			b = binary.AppendVarint(b, int64(h.Consecutive))
			b = binary.AppendVarint(b, int64(h.Total))
			b = appendString(b, h.LastError)
			b = binary.AppendVarint(b, h.LastAt)
		}
	}
	if m.Degraded != "" {
		b = append(b, binDegraded)
		b = appendString(b, m.Degraded)
	}
	if m.Firing != nil {
		b = append(b, binFiring)
		b = appendFiring(b, m.Firing)
	}
	if m.Missed != 0 {
		b = append(b, binMissed)
		b = binary.AppendVarint(b, int64(m.Missed))
	}
	if m.Lsn != 0 {
		b = append(b, binLsn)
		b = binary.AppendVarint(b, m.Lsn)
	}
	if m.Epoch != 0 {
		b = append(b, binEpoch)
		b = binary.AppendVarint(b, m.Epoch)
	}
	if len(m.Wal) > 0 {
		b = append(b, binWal)
		b = binary.AppendUvarint(b, uint64(len(m.Wal)))
		b = append(b, m.Wal...)
	}
	if m.Role != "" {
		b = append(b, binRole)
		b = appendString(b, m.Role)
	}
	if m.Leader != "" {
		b = append(b, binLeader)
		b = appendString(b, m.Leader)
	}
	if m.More {
		b = append(b, binMore, 1)
	}
	if m.Storage != nil {
		s := m.Storage
		b = append(b, binStorage)
		b = binary.AppendVarint(b, int64(s.Segments))
		b = binary.AppendVarint(b, s.WALBytes)
		b = binary.AppendVarint(b, int64(s.Snapshots))
		b = binary.AppendVarint(b, s.SnapshotBytes)
		b = binary.AppendVarint(b, s.HeadLSN)
		b = binary.AppendVarint(b, s.LastLSN)
		b = binary.AppendVarint(b, s.HistoryWindow)
		b = binary.AppendVarint(b, s.HistoryFloor)
		if s.SpillHistory {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.AppendVarint(b, s.TierRows)
		b = binary.AppendVarint(b, s.TierBytes)
	}
	return b
}

// binReader decodes the binary payload encoding. Every accessor checks
// bounds and latches the first error; callers check err once per
// composite instead of per read. It never panics on garbage input (see
// FuzzReadFrameBinary).
type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: bad binary frame: "+format, args...)
	}
}

func (r *binReader) rem() int { return len(r.b) - r.off }

func (r *binReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("truncated")
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// count reads a collection length and bounds it by the remaining bytes
// (every element is at least one byte), so a hostile count cannot force
// a huge allocation.
func (r *binReader) count() int {
	n := r.uvarint()
	if r.err == nil && n > uint64(r.rem()) {
		r.fail("count %d exceeds remaining %d bytes", n, r.rem())
		return 0
	}
	return int(n)
}

func (r *binReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.rem()) {
		r.fail("string of %d bytes exceeds remaining %d", n, r.rem())
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	// The JSON wire can only deliver valid UTF-8 (encoding/json sanitizes
	// on both ends); holding binary frames to the same rule keeps every
	// accepted Msg expressible on either codec byte-for-byte.
	if !utf8.ValidString(s) {
		r.fail("string %.32q is not valid UTF-8", s)
		return ""
	}
	return s
}

func (r *binReader) raw() json.RawMessage {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.rem()) {
		r.fail("raw value of %d bytes exceeds remaining %d", n, r.rem())
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make(json.RawMessage, n)
	copy(out, r.b[r.off:r.off+int(n)])
	r.off += int(n)
	// Embedded values must stay in the JSON value grammar: anything this
	// decoder accepts has to re-encode on the JSON wire, and downstream
	// consumers (histio, the evaluator) assume well-formed values.
	if !json.Valid(out) {
		r.fail("raw value is not JSON: %.32q", []byte(out))
		return nil
	}
	return out
}

// bytes reads a length-prefixed opaque byte string (no UTF-8 or JSON
// validation — WAL frames are arbitrary bytes; the JSON codec carries
// them as base64).
func (r *binReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.rem()) {
		r.fail("byte string of %d bytes exceeds remaining %d", n, r.rem())
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.b[r.off:r.off+int(n)])
	r.off += int(n)
	return out
}

func (r *binReader) bool() bool { return r.byte() != 0 }

func (r *binReader) rawMap() map[string]json.RawMessage {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make(map[string]json.RawMessage, n)
	for i := 0; i < n && r.err == nil; i++ {
		k := r.str()
		out[k] = r.raw()
	}
	return out
}

func (r *binReader) firing() FiringJSON {
	return FiringJSON{
		Rule:    r.str(),
		Time:    r.varint(),
		State:   int(r.varint()),
		Seq:     int(r.varint()),
		Binding: r.rawMap(),
	}
}

// decodeBinaryMsg inverts appendBinaryMsg.
func decodeBinaryMsg(payload []byte) (*Msg, error) {
	r := &binReader{b: payload}
	m := &Msg{}
	if code := r.byte(); code == 0 {
		m.T = r.str()
	} else if name, ok := typeNames[code]; ok {
		m.T = name
	} else {
		return nil, fmt.Errorf("wire: bad binary frame: unknown type code %d", code)
	}
	if m.T == "" && r.err == nil {
		return nil, fmt.Errorf("wire: frame without a type")
	}
	for r.err == nil && r.rem() > 0 {
		switch tag := r.byte(); tag {
		case binID:
			m.ID = r.uvarint()
		case binProto:
			m.Proto = r.str()
		case binVersion:
			m.Version = int(r.varint())
		case binCodecs:
			n := r.count()
			for i := 0; i < n && r.err == nil; i++ {
				m.Codecs = append(m.Codecs, r.str())
			}
		case binCodec:
			m.Codec = r.str()
		case binTS:
			m.TS = r.varint()
		case binUpdates:
			m.Updates = r.rawMap()
		case binDeletes:
			n := r.count()
			for i := 0; i < n && r.err == nil; i++ {
				m.Deletes = append(m.Deletes, r.str())
			}
		case binEvents:
			n := r.count()
			for i := 0; i < n && r.err == nil; i++ {
				// Presence-encoded inner count: 0 is a null record, v is a
				// record of v-1 values.
				nr := r.uvarint()
				if r.err != nil {
					break
				}
				if nr == 0 {
					m.Events = append(m.Events, nil)
					continue
				}
				nr--
				if nr > uint64(r.rem()) {
					r.fail("count %d exceeds remaining %d bytes", nr, r.rem())
					break
				}
				rec := make([]json.RawMessage, 0, nr)
				for j := uint64(0); j < nr && r.err == nil; j++ {
					rec = append(rec, r.raw())
				}
				m.Events = append(m.Events, rec)
			}
		case binName:
			m.Name = r.str()
		case binCond:
			m.Cond = r.str()
		case binConstraint:
			m.Constraint = r.bool()
		case binSched:
			m.Sched = int(r.varint())
		case binTxn:
			m.Txn = r.varint()
		case binWhat:
			m.What = r.str()
		case binFrom:
			m.From = int(r.varint())
		case binCode:
			m.Code = r.str()
		case binErr:
			m.Err = r.str()
		case binItems:
			m.Items = r.rawMap()
		case binFirings:
			n := r.count()
			for i := 0; i < n && r.err == nil; i++ {
				m.Firings = append(m.Firings, r.firing())
			}
		case binRules:
			n := r.count()
			for i := 0; i < n && r.err == nil; i++ {
				rj := RuleJSON{Name: r.str(), Condition: r.str(), Constraint: r.bool()}
				rj.Scheduling = adb.Scheduling(r.varint())
				np := r.count()
				for j := 0; j < np && r.err == nil; j++ {
					rj.Parameters = append(rj.Parameters, r.str())
				}
				rj.Pending = int(r.varint())
				m.Rules = append(m.Rules, rj)
			}
		case binHealth:
			n := r.count()
			for i := 0; i < n && r.err == nil; i++ {
				hj := HealthJSON{Rule: r.str(), Quarantined: r.bool()}
				hj.Consecutive = int(r.varint())
				hj.Total = int(r.varint())
				hj.LastError = r.str()
				hj.LastAt = r.varint()
				m.Health = append(m.Health, hj)
			}
		case binDegraded:
			m.Degraded = r.str()
		case binFiring:
			f := r.firing()
			m.Firing = &f
		case binMissed:
			m.Missed = int(r.varint())
		case binLsn:
			m.Lsn = r.varint()
		case binEpoch:
			m.Epoch = r.varint()
		case binWal:
			m.Wal = r.bytes()
		case binRole:
			m.Role = r.str()
		case binLeader:
			m.Leader = r.str()
		case binMore:
			m.More = r.bool()
		case binStorage:
			s := &StorageJSON{}
			s.Segments = int(r.varint())
			s.WALBytes = r.varint()
			s.Snapshots = int(r.varint())
			s.SnapshotBytes = r.varint()
			s.HeadLSN = r.varint()
			s.LastLSN = r.varint()
			s.HistoryWindow = r.varint()
			s.HistoryFloor = r.varint()
			s.SpillHistory = r.bool()
			s.TierRows = r.varint()
			s.TierBytes = r.varint()
			m.Storage = s
		default:
			r.fail("unknown field tag %d", tag)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}
