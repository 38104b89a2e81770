// Package wire is the network protocol of the active-database server: a
// length-prefixed, versioned binary framing whose payloads reuse the
// kind-tagged JSON value grammar of internal/histio, so every database
// value, event and rule binding crosses the wire in the same lossless
// encoding the durability layer writes to disk.
//
// A frame is a 4-byte big-endian payload length followed by that many
// payload bytes: one Msg in the connection's negotiated codec. The length
// is bounded by MaxFrame, so garbage bytes on the stream fail fast
// instead of allocating; a torn frame surfaces as io.ErrUnexpectedEOF.
// The first frame of every connection must be a hello carrying the
// protocol name and version; servers refuse mismatches with the
// "version" error code before anything else happens.
//
// Two payload codecs exist: the self-describing JSON codec (the v1
// format, the debugging default, and the fallback every peer speaks) and
// an allocation-light binary codec (codec.go) negotiated at handshake —
// the client's hello offers a codec list, the server picks binary when
// both ends speak it and echoes the choice in its hello reply. The hello
// exchange itself is always JSON, so peers that predate negotiation
// interoperate unchanged.
//
// The package also defines the error taxonomy shared by the server and
// client: sentinel errors for session teardown, subscriber lag and
// version mismatch, the wire error codes, and RemoteError — the
// client-side form of a server error frame, whose Unwrap maps codes back
// onto the engine's sentinels so errors.Is works across the network.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"ptlactive/internal/adb"
	"ptlactive/internal/core"
	"ptlactive/internal/histio"
	"ptlactive/internal/persist"
)

// Protocol identity. Version bumps whenever a frame's meaning changes
// incompatibly; hello frames carry it and both ends refuse mismatches.
const (
	ProtoName = "ptlactive"
	Version   = 1
)

// MaxFrame bounds one frame's payload. Larger prefixes are rejected
// before any allocation proportional to them, so a stream of garbage
// bytes cannot balloon memory.
const MaxFrame = 8 << 20

// Frame types (Msg.T). Requests flow client to server; ok/error answer
// them (echoing the request id); firing, gap and bye are pushed
// asynchronously to subscribers.
const (
	TypeHello     = "hello"
	TypeTxn       = "txn"
	TypeEmit      = "emit"
	TypeRule      = "rule"
	TypeRevive    = "revive"
	TypeQuery     = "query"
	TypeSubscribe = "subscribe"
	TypePing      = "ping"
	TypeOK        = "ok"
	TypeError     = "error"
	TypeFiring    = "firing"
	TypeGap       = "gap"
	TypeBye       = "bye"
	// TypeReplicate is a follower's stream request: "push me WAL batches
	// from Lsn, I am at Epoch". TypeWal is one pushed batch of byte-exact
	// primary WAL frames (Wal), stamped with its first LSN and the
	// primary's epoch.
	TypeReplicate = "replicate"
	TypeWal       = "wal"
	// TypeSnap is a snapshot-bootstrap chunk pushed to a follower whose
	// resume position fell behind the primary's retained WAL head: Wal
	// carries raw snapshot bytes, Lsn the LSN the snapshot covers, More
	// whether further chunks follow. After the final chunk the ordinary
	// wal stream resumes from Lsn+1.
	TypeSnap = "snap"
)

// Error codes carried by error frames; CodeFor and RemoteError.Unwrap are
// the two directions of the mapping.
const (
	CodeConstraint = "constraint"
	CodeDegraded   = "degraded"
	CodeInternal   = "internal"
	CodeVersion    = "version"
	CodeLagged     = "lagged"
	CodeClosed     = "closed"
	CodeBadRequest = "bad_request"
	CodeBusy       = "busy"
	CodeCrossShard = "cross_shard"
	CodeNotPrimary = "not_primary"
	CodeReserved   = "reserved_item"
	// CodeWalTruncated reports a replicate request whose resume position
	// predates the primary's retained WAL head and which could not be
	// served a snapshot bootstrap either.
	CodeWalTruncated = "wal_truncated"
	CodeError        = "error"
)

// Sentinel errors of the network layer; match with errors.Is. They are
// re-exported from the root ptlactive package alongside the engine's
// fault-isolation sentinels.
var (
	// ErrSessionClosed reports an operation on a session that has been
	// closed — by the client, by the server's graceful drain, or by a
	// connection failure.
	ErrSessionClosed = errors.New("server: session closed")
	// ErrSubscriberLagged reports a subscriber whose bounded firing queue
	// overflowed under the disconnect overflow policy.
	ErrSubscriberLagged = errors.New("server: subscriber lagged beyond its queue bound")
	// ErrVersionMismatch reports a hello whose protocol name or version the
	// peer does not speak.
	ErrVersionMismatch = errors.New("server: protocol version mismatch")
	// ErrCrossShard reports an operation a cluster router cannot place on
	// one shard: a transaction or emit whose items and event symbols hash
	// to different shards, or a rule whose footprint the placement oracle
	// cannot pin (unanalyzable reads, items spanning shards). Split the
	// operation along shard boundaries or re-key the data.
	ErrCrossShard = errors.New("cluster: operation spans multiple shards")
	// ErrNotPrimary reports a write sent to a replication follower, which
	// serves reads and firing subscriptions but refuses mutations. The
	// concrete error is usually a *NotPrimaryError carrying a primary hint.
	ErrNotPrimary = errors.New("server: node is not the primary")
	// ErrWalTruncated is the client-side sentinel for CodeWalTruncated:
	// the requested WAL position was garbage-collected behind a snapshot
	// and no snapshot bootstrap could stand in. On the server side the
	// condition is persist.ErrTruncatedHead.
	ErrWalTruncated = errors.New("server: wal position truncated behind a snapshot")
)

// NotPrimaryError is the typed form of ErrNotPrimary: a follower refusing
// a write, with a redirect hint to the primary it replicates from (""
// when unknown, e.g. mid-promotion). errors.Is(err, ErrNotPrimary) holds.
type NotPrimaryError struct {
	Leader string
}

// Error describes the refusal.
func (e *NotPrimaryError) Error() string {
	if e.Leader == "" {
		return "server: node is not the primary"
	}
	return fmt.Sprintf("server: node is not the primary (try %s)", e.Leader)
}

// Unwrap yields the sentinel so errors.Is works.
func (e *NotPrimaryError) Unwrap() error { return ErrNotPrimary }

// codeSentinels pairs each error code with the sentinel it stands for.
// CodeFor reads it in order, so the first sentinel an error matches
// names its code; RemoteError.Unwrap reads it the other way.
var codeSentinels = []struct {
	code string
	err  error
}{
	{CodeConstraint, adb.ErrConstraintViolation},
	{CodeDegraded, adb.ErrDegraded},
	{CodeInternal, adb.ErrInternal},
	{CodeVersion, ErrVersionMismatch},
	{CodeLagged, ErrSubscriberLagged},
	{CodeClosed, ErrSessionClosed},
	{CodeCrossShard, ErrCrossShard},
	{CodeNotPrimary, ErrNotPrimary},
	{CodeReserved, adb.ErrReservedItem},
	{CodeWalTruncated, ErrWalTruncated},
}

// CodeFor maps an error to its wire code, via errors.Is over the engine
// and network sentinels; unrecognized errors map to the generic "error".
func CodeFor(err error) string {
	for _, cs := range codeSentinels {
		if errors.Is(err, cs.err) {
			return cs.code
		}
	}
	if errors.Is(err, persist.ErrTruncatedHead) { // ErrWalTruncated's server-side name
		return CodeWalTruncated
	}
	return CodeError
}

// RemoteError is the client-side form of a server error frame. Unwrap
// maps the code back onto the matching sentinel, so errors.Is(err,
// ptlactive.ErrDegraded) holds across the network exactly as it would
// in-process. Constraint violations are not RemoteErrors: the client
// reconstructs a *adb.ConstraintError so errors.As keeps working too.
type RemoteError struct {
	Code string
	Msg  string
}

// Error describes the remote failure.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote: %s: %s", e.Code, e.Msg)
}

// Unwrap yields the sentinel the code stands for (nil for generic codes).
func (e *RemoteError) Unwrap() error {
	for _, cs := range codeSentinels {
		if cs.code == e.Code {
			return cs.err
		}
	}
	return nil
}

// FiringJSON is one rule firing on the wire: the push frame's payload and
// the element of firing-list query responses. Seq is the firing's absolute
// index in the server's firing log, so a subscriber can both resume
// (subscribe From) and detect delivery gaps.
type FiringJSON struct {
	Rule    string                     `json:"rule"`
	Time    int64                      `json:"time"`
	State   int                        `json:"state"`
	Seq     int                        `json:"seq"`
	Binding map[string]json.RawMessage `json:"binding,omitempty"`
}

// EncodeFiring renders a firing in wire form.
func EncodeFiring(f adb.Firing, seq int) (FiringJSON, error) {
	out := FiringJSON{Rule: f.Rule, Time: f.Time, State: f.StateIndex, Seq: seq}
	if len(f.Binding) > 0 {
		out.Binding = make(map[string]json.RawMessage, len(f.Binding))
		for name, v := range f.Binding {
			raw, err := histio.EncodeValue(v)
			if err != nil {
				return FiringJSON{}, fmt.Errorf("wire: binding %s: %w", name, err)
			}
			out.Binding[name] = raw
		}
	}
	return out, nil
}

// DecodeFiring inverts EncodeFiring.
func DecodeFiring(j FiringJSON) (adb.Firing, error) {
	f := adb.Firing{Rule: j.Rule, Time: j.Time, StateIndex: j.State}
	if len(j.Binding) > 0 {
		f.Binding = make(core.Binding, len(j.Binding))
		for name, raw := range j.Binding {
			v, err := histio.DecodeValue(raw)
			if err != nil {
				return adb.Firing{}, fmt.Errorf("wire: binding %s: %w", name, err)
			}
			f.Binding[name] = v
		}
	}
	return f, nil
}

// HealthJSON is one rule's health record in wire form; errors travel as
// strings (the concrete typed error does not cross the network).
type HealthJSON struct {
	Rule        string `json:"rule"`
	Quarantined bool   `json:"quarantined,omitempty"`
	Consecutive int    `json:"consecutive,omitempty"`
	Total       int    `json:"total,omitempty"`
	LastError   string `json:"last_error,omitempty"`
	LastAt      int64  `json:"last_at,omitempty"`
}

// StorageJSON answers the "storage" query: the node's storage footprint
// (WAL segments and snapshot chain). A cluster router sums the per-shard
// counters.
type StorageJSON = adb.StorageStats

// RuleJSON describes one registered rule in wire form.
type RuleJSON struct {
	Name       string         `json:"name"`
	Condition  string         `json:"cond"`
	Constraint bool           `json:"constraint,omitempty"`
	Scheduling adb.Scheduling `json:"sched,omitempty"`
	Parameters []string       `json:"params,omitempty"`
	Pending    int            `json:"pending,omitempty"`
}

// Msg is one frame's payload. A single struct covers every frame type;
// omitempty keeps the encoded form down to the fields the type uses.
//
// Zero-value audit: fields whose zero value is semantically load-bearing
// — TS (a transaction at time 0, or the timestamp echoed on an error
// reply), Txn (the violating transaction id in a constraint-error frame),
// From (subscribe/firings from index 0) and Missed (a gap frame) — do NOT
// use omitempty, so a legitimate zero is explicit on the wire instead of
// silently indistinguishable from "field absent". Purely optional payload
// fields keep omitempty; for them absent and zero mean the same thing by
// construction.
type Msg struct {
	T  string `json:"t"`
	ID uint64 `json:"id,omitempty"`

	// hello. Codecs is the sender's frame-codec offer in preference order
	// ("binary", "json"); Codec is the server's pick echoed in the hello
	// reply. Absent on either side means the legacy JSON-only protocol, so
	// version 1 peers interoperate unchanged.
	Proto   string   `json:"proto,omitempty"`
	Version int      `json:"version,omitempty"`
	Codecs  []string `json:"codecs,omitempty"`
	Codec   string   `json:"codec,omitempty"`

	// txn / emit: timestamp (0 = server assigns now+1), updates, deletes
	// and events in histio encoding. Responses echo the applied timestamp
	// in TS.
	TS      int64                      `json:"ts"`
	Updates map[string]json.RawMessage `json:"updates,omitempty"`
	Deletes []string                   `json:"deletes,omitempty"`
	Events  [][]json.RawMessage        `json:"events,omitempty"`

	// rule / revive / constraint-error detail
	Name       string `json:"name,omitempty"`
	Cond       string `json:"cond,omitempty"`
	Constraint bool   `json:"constraint,omitempty"`
	Sched      int    `json:"sched,omitempty"`
	Txn        int64  `json:"txn"`

	// query request ("db", "firings", "rules", "health", "now") and
	// subscribe; From bounds firing lists and subscription starts.
	What string `json:"what,omitempty"`
	From int    `json:"from"`

	// error responses
	Code string `json:"code,omitempty"`
	Err  string `json:"err,omitempty"`

	// response payloads
	Items    map[string]json.RawMessage `json:"items,omitempty"`
	Firings  []FiringJSON               `json:"firings,omitempty"`
	Rules    []RuleJSON                 `json:"rules,omitempty"`
	Health   []HealthJSON               `json:"health,omitempty"`
	Degraded string                     `json:"degraded,omitempty"`

	// firing push payload: Firing for a single push, Firings for a batched
	// multi-firing push (sessions that negotiated a codec list coalesce
	// queued firings into one frame per write). Gap pushes carry Missed.
	Firing *FiringJSON `json:"firing,omitempty"`
	Missed int         `json:"missed"`

	// Replication (replicate requests, wal pushes) and the "role" query
	// response. Lsn is the follower's resume position on a replicate
	// request and the first frame's LSN on a wal push — WAL LSNs start at
	// 1, so zero is never legal and omitempty is safe. Epoch is the
	// primary epoch (0 = never promoted; absent and zero coincide by
	// construction). Wal carries byte-exact primary WAL frames (base64 on
	// the JSON wire). Role/Leader answer the "role" query and decorate
	// not_primary refusals with a redirect hint.
	Lsn    int64  `json:"lsn,omitempty"`
	Epoch  int64  `json:"epoch,omitempty"`
	Wal    []byte `json:"wal,omitempty"`
	Role   string `json:"role,omitempty"`
	Leader string `json:"leader,omitempty"`
	// More marks a chunked push (snap frames) whose payload continues in
	// the next frame of the same type. Storage answers the "storage"
	// query.
	More    bool         `json:"more,omitempty"`
	Storage *StorageJSON `json:"storage,omitempty"`
}

// WriteFrame encodes m as JSON and writes one length-prefixed frame.
func WriteFrame(w io.Writer, m *Msg) error { return WriteFrameC(w, m, CodecJSON) }

// WriteFrameC encodes m in codec c and writes one length-prefixed frame.
// One-shot form of FrameWriter.Write; hot paths should hold a FrameWriter
// to reuse its buffer.
func WriteFrameC(w io.Writer, m *Msg, c Codec) error { return NewFrameWriter(w, c).Write(m) }

// FrameWriter writes frames in one codec, reusing an internal buffer
// across writes so steady-state encoding allocates nothing for the frame
// itself. It is not safe for concurrent use; callers serialize (the
// client's write mutex, the session's single writer goroutine).
type FrameWriter struct {
	w     io.Writer
	codec Codec
	enc   coder // enc.b is the frame buffer
}

// NewFrameWriter returns a FrameWriter over w in codec c.
func NewFrameWriter(w io.Writer, c Codec) *FrameWriter {
	return &FrameWriter{w: w, codec: c}
}

// Codec reports the payload encoding.
func (fw *FrameWriter) Codec() Codec { return fw.codec }

// Write encodes m and writes one length-prefixed frame.
func (fw *FrameWriter) Write(m *Msg) error {
	fw.enc.b = append(fw.enc.b[:0], 0, 0, 0, 0)
	if fw.codec == CodecBinary {
		appendBinaryMsg(&fw.enc, m)
	} else {
		payload, err := json.Marshal(m)
		if err != nil {
			return fmt.Errorf("wire: encode %s frame: %w", m.T, err)
		}
		fw.enc.b = append(fw.enc.b, payload...)
	}
	buf := fw.enc.b
	n := len(buf) - 4
	if n > MaxFrame {
		return fmt.Errorf("wire: %s frame of %d bytes exceeds MaxFrame %d", m.T, n, MaxFrame)
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(n))
	_, err := fw.w.Write(buf)
	// One oversized frame (a big query response) must not pin its buffer
	// for the life of the connection.
	if cap(buf) > 1<<20 {
		fw.enc.b = nil
	}
	return err
}

// ReadFrame reads one JSON frame; see ReadFrameC.
func ReadFrame(r io.Reader) (*Msg, error) { return ReadFrameC(r, CodecJSON) }

// ReadFrameC reads one frame whose payload is in codec c. A clean end of
// stream before the first length byte is io.EOF; a stream cut mid-frame
// is io.ErrUnexpectedEOF; a length prefix of zero or beyond MaxFrame, or a
// payload that is not one Msg, is a protocol error. It never panics on
// garbage input (see FuzzReadFrame and FuzzReadFrameBinary).
func ReadFrameC(r io.Reader, c Codec) (*Msg, error) {
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
	if c == CodecBinary {
		return decodeBinaryMsg(payload)
	}
	m := &Msg{}
	if err := json.Unmarshal(payload, m); err != nil {
		return nil, fmt.Errorf("wire: bad frame payload: %w", err)
	}
	if m.T == "" {
		return nil, fmt.Errorf("wire: frame without a type")
	}
	return m, nil
}

// Hello builds the handshake frame a client must send first.
func Hello() *Msg { return &Msg{T: TypeHello, Proto: ProtoName, Version: Version} }

// CheckHello validates a received handshake frame.
func CheckHello(m *Msg) error {
	if m.T != TypeHello {
		return fmt.Errorf("%w: first frame is %q, want hello", ErrVersionMismatch, m.T)
	}
	if m.Proto != ProtoName || m.Version != Version {
		return fmt.Errorf("%w: peer speaks %s/%d, want %s/%d",
			ErrVersionMismatch, m.Proto, m.Version, ProtoName, Version)
	}
	return nil
}
