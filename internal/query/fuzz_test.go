package query

import (
	"testing"

	"ptlactive/internal/value"
)

// FuzzRelationItem holds the three relational helpers to the Null rule over
// whatever the stock_for_sale item holds — nothing, a scalar, or rows of
// any width and any kinds: none errors or panics, each reads exactly the
// rows of the schema's width and column kinds, price(key) is Null when no
// such row has the key, and RegisterSelect and RegisterRetrieve agree.
func FuzzRelationItem(f *testing.F) {
	f.Add([]byte{1, 4, 3, 7, 8, 13}, "IBM")
	f.Add([]byte{1, 1, 3, 4, 8, 3, 3}, "")
	f.Add([]byte{4}, "x")
	f.Add([]byte{}, "x")
	f.Fuzz(func(t *testing.T, data []byte, key string) {
		reg := NewRegistry()
		schema := stocksSchema()
		if err := reg.RegisterItemField("price", "s", schema, "name", "price"); err != nil {
			t.Fatal(err)
		}
		if err := reg.RegisterSelect("sel", "s", schema, func(row []value.Value) bool { return row[1].AsFloat() >= 300 }, "name"); err != nil {
			t.Fatal(err)
		}
		if err := reg.RegisterRetrieve("ret", `RETRIEVE (s.name) WHERE s.price >= 300`, schema); err != nil {
			t.Fatal(err)
		}
		items := map[string]value.Value{}
		var rows [][]value.Value
		if len(data) > 0 {
			items["s"], rows = fuzzItem(data, key)
		}
		st := state(items, 1)

		// The oracle: the first well-shaped row with the key, and the set
		// of well-shaped names priced at 300 or more.
		want := value.Value{}
		names := map[string]bool{}
		for _, row := range rows {
			if len(row) != 4 || row[0].Kind() != value.String || !row[1].IsNumeric() ||
				row[2].Kind() != value.String || row[3].Kind() != value.String {
				continue
			}
			if want.IsNull() && row[0].Equal(value.NewString(key)) {
				want = row[1]
			}
			if row[1].AsFloat() >= 300 {
				names[row[0].AsString()] = true
			}
		}
		got, err := reg.Eval("price", st, []value.Value{value.NewString(key)})
		if err != nil || got.Kind() != want.Kind() || !want.IsNull() && !got.Equal(want) {
			t.Fatalf("price(%q) = %v, %v; want %v", key, got, err, want)
		}
		for _, fn := range []string{"sel", "ret"} {
			v, err := reg.Eval(fn, st, nil)
			if err != nil || v.Kind() != value.Relation || v.NumRows() != len(names) {
				t.Fatalf("%s = %v, %v; want the %d names %v", fn, v, err, len(names), names)
			}
			for _, row := range v.Rows() {
				if len(row) != 1 || row[0].Kind() != value.String || !names[row[0].AsString()] {
					t.Fatalf("%s = %v; want the names %v", fn, v, names)
				}
			}
		}
	})
}

// fuzzItem decodes data into the item and, for a relation, its rows: a
// first byte that is a multiple of 4 makes a scalar; otherwise each row
// takes its width (0–5) from the next byte and a value per following byte.
func fuzzItem(data []byte, key string) (value.Value, [][]value.Value) {
	if data[0]%4 == 0 {
		return value.NewInt(int64(data[0])), nil
	}
	var rows [][]value.Value
	for i := 1; i < len(data); {
		row := []value.Value{}
		for w := int(data[i] % 6); w > 0 && i+1 < len(data); w-- {
			i++
			row = append(row, fuzzValue(data[i], key))
		}
		rows = append(rows, row)
		i++
	}
	return value.NewRelation(rows), rows
}

// fuzzValue draws Null, an Int, a Float (0–1,275 in steps of 25), the key
// or another string, or a Bool from one byte.
func fuzzValue(b byte, key string) value.Value {
	switch b % 5 {
	case 1:
		return value.NewInt(int64(b) * 4)
	case 2:
		return value.NewFloat(float64(b/5) * 25)
	case 3:
		if b&8 == 0 {
			return value.NewString(key)
		}
		return value.NewString("other")
	case 4:
		return value.NewBool(b&8 != 0)
	}
	return value.Value{}
}
