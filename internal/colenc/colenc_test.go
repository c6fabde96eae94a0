package colenc

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"eon/internal/types"
)

func vecEqual(t *testing.T, a, b *types.Vector) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("len %d != %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		da, db := a.Datum(i), b.Datum(i)
		if da.Null != db.Null || (!da.Null && da.Compare(db) != 0) {
			t.Fatalf("position %d: %v != %v", i, da, db)
		}
	}
}

func roundtrip(t *testing.T, v *types.Vector, enc Encoding) {
	t.Helper()
	data := Encode(v, enc)
	got, err := Decode(data, v.Typ)
	if err != nil {
		t.Fatalf("%v decode: %v", enc, err)
	}
	vecEqual(t, v, got)
}

func TestRoundtripAllEncodingsInts(t *testing.T) {
	v := types.NewVector(types.Int64, 16)
	for _, x := range []int64{5, 5, 5, -3, 100, 100, 0, 9999999, -1 << 40} {
		v.Append(types.NewInt(x))
	}
	v.Append(types.NullDatum(types.Int64))
	v.Append(types.NewInt(7))
	for _, enc := range []Encoding{Plain, RLE, Delta, FOR} {
		roundtrip(t, v, enc)
	}
}

func TestRoundtripStrings(t *testing.T) {
	v := types.NewVector(types.Varchar, 8)
	for _, s := range []string{"apple", "apple", "banana", "", "cherry", "apple"} {
		v.Append(types.NewString(s))
	}
	v.Append(types.NullDatum(types.Varchar))
	for _, enc := range []Encoding{Plain, RLE, Dict} {
		roundtrip(t, v, enc)
	}
}

func TestRoundtripFloats(t *testing.T) {
	v := types.NewVector(types.Float64, 4)
	for _, f := range []float64{1.5, -2.25, 0, 1e300} {
		v.Append(types.NewFloat(f))
	}
	v.Append(types.NullDatum(types.Float64))
	for _, enc := range []Encoding{Plain, RLE} {
		roundtrip(t, v, enc)
	}
}

func TestRoundtripBools(t *testing.T) {
	v := types.NewVector(types.Bool, 6)
	for _, b := range []bool{true, true, false, true, false, false} {
		v.Append(types.NewBool(b))
	}
	for _, enc := range []Encoding{Plain, RLE} {
		roundtrip(t, v, enc)
	}
}

func TestRoundtripEmpty(t *testing.T) {
	for _, typ := range []types.Type{types.Int64, types.Float64, types.Varchar, types.Bool} {
		v := types.NewVector(typ, 0)
		for _, enc := range []Encoding{Plain, RLE, Delta, FOR, Dict} {
			roundtrip(t, v, enc)
		}
	}
}

func TestDateTimestampLogicalTypesPreserved(t *testing.T) {
	v := types.NewVector(types.Date, 3)
	v.Append(types.NewDate(17000))
	v.Append(types.NewDate(17001))
	data := Encode(v, Delta)
	got, err := Decode(data, types.Date)
	if err != nil {
		t.Fatal(err)
	}
	if got.Typ != types.Date || got.Ints[1] != 17001 {
		t.Errorf("decoded %v %v", got.Typ, got.Ints)
	}
}

// Property: random int vectors roundtrip through every int encoding.
func TestQuickIntRoundtrip(t *testing.T) {
	f := func(xs []int64, nullMask []bool) bool {
		v := types.NewVector(types.Int64, len(xs))
		for i, x := range xs {
			if i < len(nullMask) && nullMask[i] {
				v.Append(types.NullDatum(types.Int64))
			} else {
				v.Append(types.NewInt(x))
			}
		}
		for _, enc := range []Encoding{Plain, RLE, Delta, FOR} {
			data := Encode(v, enc)
			got, err := Decode(data, types.Int64)
			if err != nil || got.Len() != v.Len() {
				return false
			}
			for i := 0; i < v.Len(); i++ {
				if v.IsNull(i) != got.IsNull(i) {
					return false
				}
				if !v.IsNull(i) && v.Ints[i] != got.Ints[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: random string vectors roundtrip through Dict and RLE.
func TestQuickStringRoundtrip(t *testing.T) {
	f := func(xs []string) bool {
		v := types.NewVector(types.Varchar, len(xs))
		for _, x := range xs {
			v.Append(types.NewString(x))
		}
		for _, enc := range []Encoding{Plain, RLE, Dict} {
			data := Encode(v, enc)
			got, err := Decode(data, types.Varchar)
			if err != nil || got.Len() != v.Len() {
				return false
			}
			for i := range xs {
				if got.Strs[i] != xs[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWideIntRangeFallsBackFromFOR(t *testing.T) {
	v := types.NewVector(types.Int64, 2)
	v.Append(types.NewInt(-1 << 62))
	v.Append(types.NewInt(1 << 62))
	roundtrip(t, v, FOR) // must still roundtrip via the plain fallback
}

func TestSortedDataCompressesBetter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 4096
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = rng.Int63n(1000)
	}
	unsortedVec := types.NewVector(types.Int64, n)
	for _, x := range xs {
		unsortedVec.Append(types.NewInt(x))
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	sortedVec := types.NewVector(types.Int64, n)
	for _, x := range xs {
		sortedVec.Append(types.NewInt(x))
	}
	sortedSize := len(Encode(sortedVec, Choose(sortedVec, true)))
	plainSize := len(Encode(unsortedVec, Plain))
	if sortedSize >= plainSize {
		t.Errorf("sorted encoding (%d bytes) should beat plain on unsorted (%d bytes)", sortedSize, plainSize)
	}
}

func TestChoose(t *testing.T) {
	constant := types.NewVector(types.Int64, 100)
	for i := 0; i < 100; i++ {
		constant.Append(types.NewInt(7))
	}
	if Choose(constant, true) != RLE {
		t.Errorf("constant column should choose RLE, got %v", Choose(constant, true))
	}
	lowCard := types.NewVector(types.Varchar, 100)
	for i := 0; i < 100; i++ {
		lowCard.Append(types.NewString([]string{"a", "b", "c"}[i%3]))
	}
	if Choose(lowCard, false) != Dict {
		t.Errorf("low-cardinality strings should choose Dict, got %v", Choose(lowCard, false))
	}
}

func TestDecodeCorrupt(t *testing.T) {
	v := types.NewVector(types.Int64, 2)
	v.Append(types.NewInt(1))
	v.Append(types.NewInt(2))
	data := Encode(v, Plain)
	if _, err := Decode(data[:len(data)-1], types.Int64); err == nil {
		t.Error("truncated block should fail")
	}
	if _, err := Decode([]byte{99, 1, 0}, types.Int64); err == nil {
		t.Error("bad encoding tag should fail")
	}
	if _, err := Decode(nil, types.Int64); err == nil {
		t.Error("empty input should fail")
	}
}

func TestEncodingString(t *testing.T) {
	if Plain.String() != "PLAIN" || FOR.String() != "FOR" {
		t.Error("encoding names")
	}
}

// TestDecodeHostileCounts feeds block headers whose counts once made
// Decode allocate gigabytes (a fatal, unrecoverable out-of-memory) from
// a few bytes. Each must come back as ErrCorrupt.
func TestDecodeHostileCounts(t *testing.T) {
	header := func(enc Encoding, rows uint64) []byte {
		return binary.AppendUvarint([]byte{byte(enc)}, rows)
	}
	for _, tc := range []struct {
		name string
		data []byte
		typ  types.Type
	}{
		{"3G rows", header(Plain, 3<<30), types.Int64},
		{"rows one over cap", header(RLE, MaxBlockRows+1), types.Varchar},
		{"rows wrap negative", header(Plain, 1<<63), types.Float64},
		{"3G dictionary entries", binary.AppendUvarint(append(header(Dict, 1), 0), 3<<30), types.Varchar},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(tc.data, tc.typ); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}
