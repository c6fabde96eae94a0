package rosfile

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"eon/internal/colenc"
	"eon/internal/types"
)

func intVec(xs ...int64) *types.Vector {
	v := types.NewVector(types.Int64, len(xs))
	for _, x := range xs {
		v.Append(types.NewInt(x))
	}
	return v
}

func TestWriteReadColumn(t *testing.T) {
	v := intVec(1, 2, 3, 4, 5, 6, 7, 8)
	img := WriteColumn(v, WriteOptions{BlockRows: 3, Sorted: true})
	r, err := NewReader(img)
	if err != nil {
		t.Fatal(err)
	}
	if r.RowCount() != 8 || r.Type() != types.Int64 {
		t.Fatalf("rowcount=%d type=%v", r.RowCount(), r.Type())
	}
	if len(r.Footer().Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3", len(r.Footer().Blocks))
	}
	all, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		if all.Ints[i] != i+1 {
			t.Fatalf("value %d = %d", i, all.Ints[i])
		}
	}
}

func TestBlockMinMax(t *testing.T) {
	v := intVec(10, 20, 30, 40, 50, 60)
	img := WriteColumn(v, WriteOptions{BlockRows: 2})
	r, err := NewReader(img)
	if err != nil {
		t.Fatal(err)
	}
	blocks := r.Footer().Blocks
	if blocks[0].Min.I != 10 || blocks[0].Max.I != 20 {
		t.Errorf("block 0 min/max = %v/%v", blocks[0].Min, blocks[0].Max)
	}
	if blocks[2].Min.I != 50 || blocks[2].Max.I != 60 {
		t.Errorf("block 2 min/max = %v/%v", blocks[2].Min, blocks[2].Max)
	}
	if blocks[1].RowStart != 2 || blocks[1].RowCount != 2 {
		t.Errorf("block 1 position = %d+%d", blocks[1].RowStart, blocks[1].RowCount)
	}
}

func TestNullCounts(t *testing.T) {
	v := types.NewVector(types.Varchar, 4)
	v.Append(types.NewString("a"))
	v.Append(types.NullDatum(types.Varchar))
	v.Append(types.NullDatum(types.Varchar))
	v.Append(types.NewString("b"))
	img := WriteColumn(v, WriteOptions{})
	r, err := NewReader(img)
	if err != nil {
		t.Fatal(err)
	}
	if r.Footer().Blocks[0].NullCount != 2 {
		t.Errorf("nullcount = %d", r.Footer().Blocks[0].NullCount)
	}
	all, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !all.IsNull(1) || !all.IsNull(2) || all.IsNull(0) {
		t.Error("null roundtrip wrong")
	}
}

func TestReadBlockIndividually(t *testing.T) {
	v := intVec(1, 2, 3, 4, 5)
	img := WriteColumn(v, WriteOptions{BlockRows: 2})
	r, err := NewReader(img)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := r.ReadBlock(1)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Len() != 2 || b1.Ints[0] != 3 {
		t.Errorf("block 1 = %v", b1.Ints)
	}
	if _, err := r.ReadBlock(99); err == nil {
		t.Error("out-of-range block should error")
	}
}

func TestBlockForRow(t *testing.T) {
	v := intVec(1, 2, 3, 4, 5, 6, 7)
	img := WriteColumn(v, WriteOptions{BlockRows: 3})
	r, _ := NewReader(img)
	cases := map[int64]int{0: 0, 2: 0, 3: 1, 6: 2}
	for row, want := range cases {
		if got := r.BlockForRow(row); got != want {
			t.Errorf("BlockForRow(%d) = %d, want %d", row, got, want)
		}
	}
	if r.BlockForRow(100) != -1 {
		t.Error("out of range row should be -1")
	}
}

func TestEmptyColumn(t *testing.T) {
	v := types.NewVector(types.Float64, 0)
	img := WriteColumn(v, WriteOptions{})
	r, err := NewReader(img)
	if err != nil {
		t.Fatal(err)
	}
	if r.RowCount() != 0 || len(r.Footer().Blocks) != 0 {
		t.Error("empty column should have no blocks")
	}
	all, err := r.ReadAll()
	if err != nil || all.Len() != 0 {
		t.Error("empty readall")
	}
}

func TestCorruptDetection(t *testing.T) {
	v := intVec(1, 2, 3)
	img := WriteColumn(v, WriteOptions{})
	if _, err := NewReader(img[:4]); err == nil {
		t.Error("truncated file should fail")
	}
	bad := append([]byte{}, img...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := NewReader(bad); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := NewReader(nil); err == nil {
		t.Error("nil input should fail")
	}
}

// Property: any int64 column roundtrips through the file format.
func TestQuickRoundtrip(t *testing.T) {
	f := func(xs []int64) bool {
		v := intVec(xs...)
		img := WriteColumn(v, WriteOptions{BlockRows: 4})
		r, err := NewReader(img)
		if err != nil {
			return false
		}
		all, err := r.ReadAll()
		if err != nil || all.Len() != len(xs) {
			return false
		}
		for i, x := range xs {
			if all.Ints[i] != x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: footer stats bound every value in each block.
func TestQuickStatsBound(t *testing.T) {
	f := func(xs []int64) bool {
		if len(xs) == 0 {
			return true
		}
		v := intVec(xs...)
		img := WriteColumn(v, WriteOptions{BlockRows: 3})
		r, err := NewReader(img)
		if err != nil {
			return false
		}
		for bi, blk := range r.Footer().Blocks {
			data, err := r.ReadBlock(bi)
			if err != nil {
				return false
			}
			for i := 0; i < data.Len(); i++ {
				x := data.Ints[i]
				if x < blk.Min.I || x > blk.Max.I {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBundleRoundtrip(t *testing.T) {
	a := WriteColumn(intVec(1, 2, 3), WriteOptions{})
	sVec := types.NewVector(types.Varchar, 2)
	sVec.Append(types.NewString("x"))
	sVec.Append(types.NewString("y"))
	b := WriteColumn(sVec, WriteOptions{})
	img, err := BuildBundle([]string{"id", "name"}, [][]byte{a, b})
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := OpenBundle(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundle.Names()) != 2 {
		t.Fatalf("names = %v", bundle.Names())
	}
	r, err := bundle.Open("name")
	if err != nil {
		t.Fatal(err)
	}
	all, err := r.ReadAll()
	if err != nil || all.Strs[1] != "y" {
		t.Errorf("bundle column read: %v %v", err, all)
	}
	if _, err := bundle.Open("missing"); err == nil {
		t.Error("missing column should error")
	}
}

func TestBundleMismatchedInputs(t *testing.T) {
	if _, err := BuildBundle([]string{"a"}, nil); err == nil {
		t.Error("mismatched names/images should fail")
	}
}

func TestBundleCorrupt(t *testing.T) {
	if _, err := OpenBundle([]byte{1, 2, 3}); err == nil {
		t.Error("short bundle should fail")
	}
	img, _ := BuildBundle([]string{"a"}, [][]byte{WriteColumn(intVec(1), WriteOptions{})})
	bad := append([]byte{}, img...)
	bad[len(bad)-2] ^= 0xFF
	if _, err := OpenBundle(bad); err == nil {
		t.Error("corrupt magic should fail")
	}
}

func TestStringMinMaxInFooter(t *testing.T) {
	v := types.NewVector(types.Varchar, 3)
	v.Append(types.NewString("melon"))
	v.Append(types.NewString("apple"))
	v.Append(types.NewString("zebra"))
	img := WriteColumn(v, WriteOptions{})
	r, _ := NewReader(img)
	blk := r.Footer().Blocks[0]
	if blk.Min.S != "apple" || blk.Max.S != "zebra" {
		t.Errorf("string min/max = %q/%q", blk.Min.S, blk.Max.S)
	}
}

// withFooter re-encodes img (a column file with one or more blocks)
// around a footer that edit has changed.
func withFooter(t *testing.T, img []byte, edit func(f *Footer)) []byte {
	t.Helper()
	r, err := NewReader(img)
	if err != nil {
		t.Fatal(err)
	}
	f := r.Footer()
	f.Blocks = append([]BlockMeta(nil), f.Blocks...)
	edit(&f)
	flen := int(binary.LittleEndian.Uint32(img[len(img)-8:]))
	out := append([]byte(nil), img[:len(img)-8-flen]...)
	fb := encodeFooter(f)
	out = append(out, fb...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(fb)))
	return binary.LittleEndian.AppendUint32(out, Magic)
}

// TestCorruptFooterIsError feeds footers that once crashed the reader
// (a negative block length sliced out of range) or that claim more rows
// than their bytes can hold. Each must come back as ErrCorrupt.
func TestCorruptFooterIsError(t *testing.T) {
	img := WriteColumn(intVec(1, 2, 3, 4, 5, 6, 7), WriteOptions{BlockRows: 3})
	for _, tc := range []struct {
		name string
		edit func(f *Footer)
		all  bool // ReadAll rather than ReadBlock(0) must fail
	}{
		{"negative length", func(f *Footer) { f.Blocks[0].Length = -1 }, false},
		{"negative offset", func(f *Footer) { f.Blocks[0].Offset = -2 }, false},
		{"offset past end", func(f *Footer) { f.Blocks[0].Offset = 1 << 40 }, false},
		{"length overflows offset", func(f *Footer) { f.Blocks[0].Offset, f.Blocks[0].Length = 1, math.MaxInt64 }, false},
		{"block rows disagree", func(f *Footer) { f.Blocks[0].RowCount = 4 }, false},
		{"footer rows disagree", func(f *Footer) { f.RowCount = 3 << 30 }, true},
		{"block rows over cap", func(f *Footer) {
			f.Blocks[0].RowCount = colenc.MaxBlockRows + 1
			f.RowCount += colenc.MaxBlockRows + 1 - 3
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReader(withFooter(t, img, tc.edit))
			if err != nil {
				t.Fatal(err)
			}
			if tc.all {
				_, err = r.ReadAll()
			} else {
				_, err = r.ReadBlock(0)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
	// A block count no footer could hold is rejected before allocating.
	huge := withFooter(t, img, func(f *Footer) { f.Blocks = nil })
	flen := int(binary.LittleEndian.Uint32(huge[len(huge)-8:]))
	fb := append([]byte(nil), huge[len(huge)-8-flen:len(huge)-8]...)
	fb = binary.AppendUvarint(fb[:len(fb)-1], 1<<60)
	bad := append(append([]byte(nil), huge[:len(huge)-8-flen]...), fb...)
	bad = binary.LittleEndian.AppendUint32(bad, uint32(len(fb)))
	bad = binary.LittleEndian.AppendUint32(bad, Magic)
	if _, err := NewReader(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge block count: err = %v, want ErrCorrupt", err)
	}
}

// TestWriterEnforcesBlockCap checks that the writer never emits a block
// the decoder would refuse.
func TestWriterEnforcesBlockCap(t *testing.T) {
	n := colenc.MaxBlockRows + 10
	v := types.NewVector(types.Int64, n)
	for i := 0; i < n; i++ {
		v.Append(types.NewInt(int64(i)))
	}
	r, err := NewReader(WriteColumn(v, WriteOptions{BlockRows: 2 * n}))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Footer().Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(r.Footer().Blocks))
	}
	all, err := r.ReadAll()
	if err != nil || all.Len() != n {
		t.Fatalf("ReadAll: %d rows, %v", all.Len(), err)
	}
}
