package value

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// This file is the canonical kind-tagged JSON codec for values, shared by
// the history exporter (internal/histio) and the evaluator state encoding
// (internal/core), neither of which imports the other. The grammar:
//
//	{"int": 3} {"float": 2.5} {"str": "x"} {"bool": true} {"null": true}
//	{"tuple": [...]} {"rel": [[...], ...]}
//
// Non-finite floats are not representable as JSON numbers; they are
// encoded as the strings "NaN", "+Inf" and "-Inf" under the float tag.

// EncodeJSON renders the value in its kind-tagged JSON form.
//
// The scalar kinds take a direct append path that produces exactly the
// bytes json.Marshal would (compact object, same escaping) — values are
// encoded once per commit on the wire and once per WAL record, so the
// map-and-reflect cost of json.Marshal is a measurable share of a
// commit (E13).
func EncodeJSON(v Value) (json.RawMessage, error) {
	switch v.Kind() {
	case Null:
		return json.RawMessage(`{"null":true}`), nil
	case Bool:
		if v.AsBool() {
			return json.RawMessage(`{"bool":true}`), nil
		}
		return json.RawMessage(`{"bool":false}`), nil
	case Int:
		b := make([]byte, 0, 28)
		b = append(b, `{"int":`...)
		b = strconv.AppendInt(b, v.AsInt(), 10)
		b = append(b, '}')
		return b, nil
	case Float:
		f := v.AsFloat()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return jsonTag("float", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return jsonTag("float", f)
	case String:
		if s := v.AsString(); plainJSONString(s) {
			b := make([]byte, 0, len(s)+10)
			b = append(b, `{"str":"`...)
			b = append(b, s...)
			b = append(b, '"', '}')
			return b, nil
		}
		return jsonTag("str", v.AsString())
	case Tuple:
		elems := make([]json.RawMessage, v.TupleLen())
		for i := 0; i < v.TupleLen(); i++ {
			e, err := EncodeJSON(v.TupleAt(i))
			if err != nil {
				return nil, err
			}
			elems[i] = e
		}
		return jsonTag("tuple", elems)
	case Relation:
		rows := make([][]json.RawMessage, 0, v.NumRows())
		for _, row := range v.Rows() {
			enc := make([]json.RawMessage, len(row))
			for i, cell := range row {
				e, err := EncodeJSON(cell)
				if err != nil {
					return nil, err
				}
				enc[i] = e
			}
			rows = append(rows, enc)
		}
		return jsonTag("rel", rows)
	default:
		return nil, fmt.Errorf("value: unknown kind %s", v.Kind())
	}
}

func jsonTag(name string, payload any) (json.RawMessage, error) {
	return json.Marshal(map[string]any{name: payload})
}

// plainJSONString reports whether s encodes under json.Marshal as
// itself between quotes: printable ASCII with no `"` or `\` and none of
// the HTML-escaped characters (`<`, `>`, `&`).
func plainJSONString(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// DecodeJSON parses a kind-tagged JSON value.
//
// The compact scalar forms the encoder's fast path emits are decoded by
// direct inspection; anything else — extra whitespace, escapes, nested
// kinds — takes the full parser below, so every input the slow path
// accepted still decodes identically.
func DecodeJSON(raw json.RawMessage) (Value, error) {
	if v, ok := decodeScalarFast(raw); ok {
		return v, nil
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return Value{}, fmt.Errorf("value: %w", err)
	}
	if len(m) != 1 {
		return Value{}, fmt.Errorf("value: must have exactly one kind tag, got %d", len(m))
	}
	for kind, payload := range m {
		switch kind {
		case "null":
			return Value{}, nil
		case "bool":
			var b bool
			if err := json.Unmarshal(payload, &b); err != nil {
				return Value{}, err
			}
			return NewBool(b), nil
		case "int":
			var i int64
			if err := json.Unmarshal(payload, &i); err != nil {
				return Value{}, err
			}
			return NewInt(i), nil
		case "float":
			var f float64
			if err := json.Unmarshal(payload, &f); err != nil {
				// Non-finite floats are encoded as strings.
				var s string
				if serr := json.Unmarshal(payload, &s); serr != nil {
					return Value{}, err
				}
				pf, perr := strconv.ParseFloat(s, 64)
				if perr != nil {
					return Value{}, fmt.Errorf("value: float %q: %w", s, perr)
				}
				return NewFloat(pf), nil
			}
			return NewFloat(f), nil
		case "str":
			var s string
			if err := json.Unmarshal(payload, &s); err != nil {
				return Value{}, err
			}
			return NewString(s), nil
		case "tuple":
			var elems []json.RawMessage
			if err := json.Unmarshal(payload, &elems); err != nil {
				return Value{}, err
			}
			out := make([]Value, len(elems))
			for i, e := range elems {
				v, err := DecodeJSON(e)
				if err != nil {
					return Value{}, err
				}
				out[i] = v
			}
			return NewTuple(out...), nil
		case "rel":
			var rows [][]json.RawMessage
			if err := json.Unmarshal(payload, &rows); err != nil {
				return Value{}, err
			}
			out := make([][]Value, len(rows))
			for i, row := range rows {
				out[i] = make([]Value, len(row))
				for j, cell := range row {
					v, err := DecodeJSON(cell)
					if err != nil {
						return Value{}, err
					}
					out[i][j] = v
				}
			}
			return NewRelation(out), nil
		default:
			return Value{}, fmt.Errorf("value: unknown kind tag %q", kind)
		}
	}
	return Value{}, fmt.Errorf("value: empty")
}

// decodeScalarFast parses exactly the compact scalar encodings —
// `{"null":true}`, `{"bool":…}`, `{"int":N}`, `{"str":"…"}` with no
// whitespace or escapes. ok=false means "not this shape", never an
// error: the caller falls back to the full parser.
func decodeScalarFast(raw json.RawMessage) (Value, bool) {
	switch {
	case string(raw) == `{"null":true}`:
		return Value{}, true
	case string(raw) == `{"bool":true}`:
		return NewBool(true), true
	case string(raw) == `{"bool":false}`:
		return NewBool(false), true
	}
	if len(raw) < 9 || raw[0] != '{' || raw[len(raw)-1] != '}' {
		return Value{}, false
	}
	body := raw[1 : len(raw)-1]
	if rest, ok := cutPrefix(body, `"int":`); ok {
		// Only canonical JSON integers — no "+", no leading zeros — so the
		// fast path accepts nothing the full parser would reject.
		digits := rest
		if len(digits) > 0 && digits[0] == '-' {
			digits = digits[1:]
		}
		if len(digits) == 0 || (digits[0] == '0' && len(digits) > 1) {
			return Value{}, false
		}
		for _, c := range digits {
			if c < '0' || c > '9' {
				return Value{}, false
			}
		}
		i, err := strconv.ParseInt(string(rest), 10, 64)
		if err != nil {
			return Value{}, false
		}
		return NewInt(i), true
	}
	if rest, ok := cutPrefix(body, `"str":"`); ok {
		if len(rest) == 0 || rest[len(rest)-1] != '"' {
			return Value{}, false
		}
		s := string(rest[:len(rest)-1])
		if !plainJSONString(s) {
			return Value{}, false
		}
		return NewString(s), true
	}
	return Value{}, false
}

func cutPrefix(b []byte, prefix string) ([]byte, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return nil, false
	}
	return b[len(prefix):], true
}
