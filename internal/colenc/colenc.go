// Package colenc implements the column encodings used inside ROS container
// files: plain, run-length (RLE), dictionary, delta and frame-of-reference
// bit packing. Vertica's execution engine "operates directly on encoded
// data" (paper §2.1); here the scan decodes blocks, but the encoding
// choices and their compression behaviour on sorted data are reproduced.
//
// An encoded block is self-describing: a one-byte encoding tag, a null
// bitmap section, then the payload. Decode needs only the logical type.
package colenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"eon/internal/types"
)

// MaxBlockRows caps the rows of one encoded block. Decode rejects a
// larger row count before it allocates anything, so a corrupt or hostile
// block header cannot request more memory than a legal block holds. The
// ROS writer never produces larger blocks, and Encode refuses them.
const MaxBlockRows = 1 << 16

// Encoding identifies a block encoding scheme.
type Encoding uint8

// The supported encodings.
const (
	Plain Encoding = iota
	RLE
	Dict
	Delta
	FOR // frame-of-reference bit packing for integers
)

// String names the encoding.
func (e Encoding) String() string {
	switch e {
	case Plain:
		return "PLAIN"
	case RLE:
		return "RLE"
	case Dict:
		return "DICT"
	case Delta:
		return "DELTA"
	case FOR:
		return "FOR"
	}
	return fmt.Sprintf("ENC(%d)", uint8(e))
}

// ErrCorrupt is returned when a block fails to decode.
var ErrCorrupt = errors.New("colenc: corrupt block")

type buf struct{ b []byte }

func (w *buf) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	w.b = append(w.b, tmp[:n]...)
}

func (w *buf) varint(v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	w.b = append(w.b, tmp[:n]...)
}

func (w *buf) bytes(p []byte) { w.b = append(w.b, p...) }
func (w *buf) byte(c byte)    { w.b = append(w.b, c) }
func (w *buf) f64(f float64)  { w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(f)) }
func (w *buf) str(s string)   { w.uvarint(uint64(len(s))); w.b = append(w.b, s...) }

type rd struct {
	b   []byte
	pos int
	err error
}

func (r *rd) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.err = ErrCorrupt
		return 0
	}
	r.pos += n
	return v
}

func (r *rd) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		r.err = ErrCorrupt
		return 0
	}
	r.pos += n
	return v
}

func (r *rd) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.b) {
		r.err = ErrCorrupt
		return 0
	}
	c := r.b[r.pos]
	r.pos++
	return c
}

func (r *rd) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.b) {
		r.err = ErrCorrupt
		return nil
	}
	p := r.b[r.pos : r.pos+n]
	r.pos += n
	return p
}

func (r *rd) f64() float64 {
	p := r.take(8)
	if r.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

func (r *rd) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.pos) {
		r.err = ErrCorrupt
		return ""
	}
	return string(r.take(int(n)))
}

// writeNulls serializes the null positions of v: uvarint count followed by
// delta-encoded positions.
func writeNulls(w *buf, v *types.Vector) {
	var positions []int
	if v.Nulls != nil {
		for i, isNull := range v.Nulls {
			if isNull {
				positions = append(positions, i)
			}
		}
	}
	w.uvarint(uint64(len(positions)))
	prev := 0
	for _, p := range positions {
		w.uvarint(uint64(p - prev))
		prev = p
	}
}

func readNulls(r *rd, n int) []bool {
	cnt := r.uvarint()
	if r.err != nil || cnt == 0 {
		return nil
	}
	nulls := make([]bool, n)
	pos := 0
	for i := uint64(0); i < cnt; i++ {
		pos += int(r.uvarint())
		if r.err != nil || pos >= n {
			r.err = ErrCorrupt
			return nil
		}
		nulls[pos] = true
	}
	return nulls
}

// Choose picks a reasonable encoding for the vector. sorted indicates the
// vector is in sort order (the ROS writer knows this from the projection's
// sort key), which favours RLE and delta.
func Choose(v *types.Vector, sorted bool) Encoding {
	n := v.Len()
	if n == 0 {
		return Plain
	}
	switch v.Typ.Physical() {
	case types.Int64:
		if sorted {
			if runFraction(v) > 0.5 {
				return RLE
			}
			return Delta
		}
		if runFraction(v) > 0.5 {
			return RLE
		}
		return FOR
	case types.Varchar:
		card := distinctCap(v, n/4+1)
		if card <= n/4 {
			if sorted && runFraction(v) > 0.5 {
				return RLE
			}
			return Dict
		}
		return Plain
	case types.Bool:
		return RLE
	default:
		if sorted && runFraction(v) > 0.5 {
			return RLE
		}
		return Plain
	}
}

// runFraction estimates the fraction of adjacent pairs that are equal.
func runFraction(v *types.Vector) float64 {
	n := v.Len()
	if n < 2 {
		return 0
	}
	eq := 0
	for i := 1; i < n; i++ {
		if v.Datum(i).Equal(v.Datum(i - 1)) {
			eq++
		}
	}
	return float64(eq) / float64(n-1)
}

// distinctCap counts distinct values up to a cap (then returns cap+1).
func distinctCap(v *types.Vector, cap int) int {
	seen := make(map[string]struct{}, cap)
	for i := 0; i < v.Len(); i++ {
		seen[v.Datum(i).String()] = struct{}{}
		if len(seen) > cap {
			return cap + 1
		}
	}
	return len(seen)
}

// Encode serializes the vector with the given encoding. Encodings that do
// not apply to the vector's type fall back to Plain.
func Encode(v *types.Vector, enc Encoding) []byte {
	phys := v.Typ.Physical()
	switch enc {
	case Delta, FOR:
		if phys != types.Int64 {
			enc = Plain
		}
	case Dict:
		if phys != types.Varchar {
			enc = Plain
		}
	}
	// The bit-packing accumulator handles widths up to 56 bits; wider
	// frames gain nothing over plain varints anyway.
	if enc == FOR && forWidth(v.Ints) > 56 {
		enc = Plain
	}
	if v.Len() > MaxBlockRows {
		panic(fmt.Sprintf("colenc: Encode of %d rows exceeds MaxBlockRows (%d)", v.Len(), MaxBlockRows))
	}
	w := &buf{}
	w.byte(byte(enc))
	w.uvarint(uint64(v.Len()))
	writeNulls(w, v)
	switch enc {
	case Plain:
		encodePlain(w, v)
	case RLE:
		encodeRLE(w, v)
	case Dict:
		encodeDict(w, v)
	case Delta:
		encodeDelta(w, v)
	case FOR:
		encodeFOR(w, v)
	}
	return w.b
}

// Decode deserializes a block produced by Encode into a vector of logical
// type t.
func Decode(data []byte, t types.Type) (*types.Vector, error) {
	r := &rd{b: data}
	enc := Encoding(r.byte())
	cnt := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if cnt > MaxBlockRows {
		return nil, fmt.Errorf("colenc: block of %d rows exceeds %d: %w", cnt, MaxBlockRows, ErrCorrupt)
	}
	n := int(cnt)
	nulls := readNulls(r, n)
	v := types.NewVector(t, n)
	v.Nulls = nulls
	switch enc {
	case Plain:
		decodePlain(r, v, n)
	case RLE:
		decodeRLE(r, v, n)
	case Dict:
		decodeDict(r, v, n)
	case Delta:
		decodeDelta(r, v, n)
	case FOR:
		decodeFOR(r, v, n)
	default:
		return nil, fmt.Errorf("colenc: unknown encoding tag %d: %w", enc, ErrCorrupt)
	}
	if r.err != nil {
		return nil, r.err
	}
	if v.Len() != n {
		return nil, ErrCorrupt
	}
	return v, nil
}

func encodePlain(w *buf, v *types.Vector) {
	switch v.Typ.Physical() {
	case types.Int64:
		for _, x := range v.Ints {
			w.varint(x)
		}
	case types.Float64:
		for _, f := range v.Floats {
			w.f64(f)
		}
	case types.Varchar:
		for _, s := range v.Strs {
			w.str(s)
		}
	case types.Bool:
		for _, b := range v.Bools {
			if b {
				w.byte(1)
			} else {
				w.byte(0)
			}
		}
	}
}

func decodePlain(r *rd, v *types.Vector, n int) {
	switch v.Typ.Physical() {
	case types.Int64:
		for i := 0; i < n; i++ {
			v.Ints = append(v.Ints, r.varint())
		}
	case types.Float64:
		for i := 0; i < n; i++ {
			v.Floats = append(v.Floats, r.f64())
		}
	case types.Varchar:
		for i := 0; i < n; i++ {
			v.Strs = append(v.Strs, r.str())
		}
	case types.Bool:
		for i := 0; i < n; i++ {
			v.Bools = append(v.Bools, r.byte() != 0)
		}
	}
}

func encodeRLE(w *buf, v *types.Vector) {
	n := v.Len()
	i := 0
	for i < n {
		j := i + 1
		for j < n && rawEqual(v, j, i) {
			j++
		}
		w.uvarint(uint64(j - i))
		writeRaw(w, v, i)
		i = j
	}
}

func decodeRLE(r *rd, v *types.Vector, n int) {
	for v.Len() < n {
		run := int(r.uvarint())
		if r.err != nil || run <= 0 || v.Len()+run > n {
			r.err = ErrCorrupt
			return
		}
		readRawRun(r, v, run)
	}
}

// rawEqual compares physical values ignoring nullness (nulls are stored in
// the bitmap; their payload slot is the zero value, which still run-length
// encodes correctly).
func rawEqual(v *types.Vector, i, j int) bool {
	switch v.Typ.Physical() {
	case types.Int64:
		return v.Ints[i] == v.Ints[j]
	case types.Float64:
		return math.Float64bits(v.Floats[i]) == math.Float64bits(v.Floats[j])
	case types.Varchar:
		return v.Strs[i] == v.Strs[j]
	case types.Bool:
		return v.Bools[i] == v.Bools[j]
	}
	return false
}

func writeRaw(w *buf, v *types.Vector, i int) {
	switch v.Typ.Physical() {
	case types.Int64:
		w.varint(v.Ints[i])
	case types.Float64:
		w.f64(v.Floats[i])
	case types.Varchar:
		w.str(v.Strs[i])
	case types.Bool:
		if v.Bools[i] {
			w.byte(1)
		} else {
			w.byte(0)
		}
	}
}

func readRawRun(r *rd, v *types.Vector, run int) {
	switch v.Typ.Physical() {
	case types.Int64:
		x := r.varint()
		for k := 0; k < run; k++ {
			v.Ints = append(v.Ints, x)
		}
	case types.Float64:
		f := r.f64()
		for k := 0; k < run; k++ {
			v.Floats = append(v.Floats, f)
		}
	case types.Varchar:
		s := r.str()
		for k := 0; k < run; k++ {
			v.Strs = append(v.Strs, s)
		}
	case types.Bool:
		b := r.byte() != 0
		for k := 0; k < run; k++ {
			v.Bools = append(v.Bools, b)
		}
	}
}

func encodeDict(w *buf, v *types.Vector) {
	index := make(map[string]uint64)
	var dict []string
	codes := make([]uint64, 0, v.Len())
	for _, s := range v.Strs {
		c, ok := index[s]
		if !ok {
			c = uint64(len(dict))
			index[s] = c
			dict = append(dict, s)
		}
		codes = append(codes, c)
	}
	w.uvarint(uint64(len(dict)))
	for _, s := range dict {
		w.str(s)
	}
	for _, c := range codes {
		w.uvarint(c)
	}
}

func decodeDict(r *rd, v *types.Vector, n int) {
	// Every entry takes at least its one-byte length, which bounds the
	// dictionary by the bytes left.
	cnt := r.uvarint()
	if r.err != nil || cnt > uint64(len(r.b)-r.pos) {
		r.err = ErrCorrupt
		return
	}
	dn := int(cnt)
	dict := make([]string, dn)
	for i := range dict {
		dict[i] = r.str()
	}
	for i := 0; i < n; i++ {
		c := r.uvarint()
		if r.err != nil {
			return
		}
		if c >= uint64(dn) {
			r.err = ErrCorrupt
			return
		}
		v.Strs = append(v.Strs, dict[c])
	}
}

func encodeDelta(w *buf, v *types.Vector) {
	prev := int64(0)
	for _, x := range v.Ints {
		w.varint(x - prev)
		prev = x
	}
}

func decodeDelta(r *rd, v *types.Vector, n int) {
	prev := int64(0)
	for i := 0; i < n; i++ {
		prev += r.varint()
		v.Ints = append(v.Ints, prev)
	}
}

// forWidth returns the bit width needed to frame-of-reference encode xs.
func forWidth(xs []int64) int {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return bits.Len64(uint64(hi - lo))
}

func encodeFOR(w *buf, v *types.Vector) {
	n := len(v.Ints)
	if n == 0 {
		return
	}
	lo, hi := v.Ints[0], v.Ints[0]
	for _, x := range v.Ints {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	span := uint64(hi - lo)
	width := bits.Len64(span)
	w.varint(lo)
	w.byte(byte(width))
	if width == 0 {
		return
	}
	var acc uint64
	accBits := 0
	for _, x := range v.Ints {
		val := uint64(x - lo)
		acc |= val << accBits
		accBits += width
		for accBits >= 8 {
			w.byte(byte(acc))
			acc >>= 8
			accBits -= 8
		}
	}
	if accBits > 0 {
		w.byte(byte(acc))
	}
}

func decodeFOR(r *rd, v *types.Vector, n int) {
	if n == 0 {
		return
	}
	lo := r.varint()
	width := int(r.byte())
	if r.err != nil {
		return
	}
	if width == 0 {
		for i := 0; i < n; i++ {
			v.Ints = append(v.Ints, lo)
		}
		return
	}
	if width > 56 { // the encoder never produces wider frames
		r.err = ErrCorrupt
		return
	}
	totalBits := n * width
	nbytes := (totalBits + 7) / 8
	p := r.take(nbytes)
	if r.err != nil {
		return
	}
	var acc uint64
	accBits := 0
	pos := 0
	mask := uint64(1)<<uint(width) - 1
	if width == 64 {
		mask = ^uint64(0)
	}
	for i := 0; i < n; i++ {
		for accBits < width {
			if pos >= len(p) {
				r.err = ErrCorrupt
				return
			}
			acc |= uint64(p[pos]) << accBits
			pos++
			accBits += 8
		}
		v.Ints = append(v.Ints, lo+int64(acc&mask))
		acc >>= uint(width)
		accBits -= width
	}
}
