package exec

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"

	"eon/internal/types"
)

// hashTable maps composite keys to dense ids assigned in first-seen
// order. It is the one hash table behind the vectorized GROUP BY,
// DISTINCT and hash join, and it works a batch at a time:
//
//   - The distinct keys are stored columnar, one vector per key column,
//     id i at position i. A grouping operator emits them as its key
//     columns directly.
//   - A batch is hashed one key column at a time with a typed loop per
//     physical class; no row is encoded to bytes.
//   - Equality keeps rowKey's semantics: NULL equals NULL (callers that
//     want SQL join semantics drop NULL keys first), floats compare by
//     bit pattern (-0.0 != +0.0, NaN == NaN), and columns of different
//     physical classes never match.
//   - Ids depend only on the order keys arrive in, never on the hash
//     seed, so output order is deterministic.
//
// Slots use open addressing with linear probing over a power-of-two
// array held at most half full.
type hashTable struct {
	phys   []types.Type    // physical class of each key column
	keys   []*types.Vector // distinct keys in id order
	hashes []uint64        // hash of each id's key
	slots  []int32         // id+1 per slot; 0 = empty
	shift  uint            // slot of hash h is h >> shift

	// Per-batch scratch, reused across calls.
	hbuf []uint64 // row hashes
	pend []int    // batch rows holding this batch's new keys, by id
}

const minSlots = 16

// hashSeed seeds string hashing. Ids never depend on it.
var hashSeed = maphash.MakeSeed()

// newHashTable returns an empty table whose keys have the given types,
// sized to hold capHint keys before its slots first grow.
func newHashTable(keyTypes []types.Type, capHint int) *hashTable {
	t := &hashTable{
		phys: make([]types.Type, len(keyTypes)),
		keys: make([]*types.Vector, len(keyTypes)),
	}
	for c, typ := range keyTypes {
		t.phys[c] = typ.Physical()
		t.keys[c] = types.NewVector(typ, 0)
	}
	n := minSlots
	for n < 2*capHint {
		n <<= 1
	}
	t.rehash(n)
	t.hashes = make([]uint64, 0, max(capHint, minSlots/2))
	return t
}

// Len returns the number of distinct keys.
func (t *hashTable) Len() int { return len(t.hashes) }

// classesMatch reports whether every column of cols has the physical
// class of the corresponding stored key column.
func (t *hashTable) classesMatch(cols []*types.Vector) bool {
	for c, v := range cols {
		if v.Typ.Physical() != t.phys[c] {
			return false
		}
	}
	return true
}

// insert resolves the n rows of cols (row j at selRow(sel, j)) to ids,
// adding keys not yet present. ids is reused when large enough. A row
// whose key is new gets the next id, so within a batch new ids appear in
// ascending order.
func (t *hashTable) insert(cols []*types.Vector, sel []int, n int, ids []int32) ([]int32, error) {
	if !t.classesMatch(cols) {
		return ids, fmt.Errorf("exec: hash table key columns changed physical class")
	}
	hs := t.hash(cols, sel, n)
	ids = resize(ids, n)
	base := int32(len(t.hashes))
	t.pend = t.pend[:0]
	for j, h := range hs {
		if 2*(len(t.hashes)+1) > len(t.slots) {
			t.rehash(2 * len(t.slots))
		}
		i := selRow(sel, j)
		mask := uint64(len(t.slots) - 1)
		for pos := h >> t.shift; ; pos = (pos + 1) & mask {
			s := t.slots[pos]
			if s == 0 {
				id := int32(len(t.hashes))
				t.slots[pos] = id + 1
				t.hashes = append(reserve(t.hashes, 1), h)
				t.pend = append(t.pend, i)
				ids[j] = id
				break
			}
			id := s - 1
			if t.hashes[id] != h {
				continue
			}
			// Keys new in this batch are not stored yet; compare against
			// the batch row that introduced them.
			if id < base && t.keyEq(t.keys, int(id), cols, i) ||
				id >= base && t.keyEq(cols, t.pend[id-base], cols, i) {
				ids[j] = id
				break
			}
		}
	}
	for c, v := range cols {
		appendRows(t.keys[c], v, t.pend)
	}
	return ids, nil
}

// find resolves the n rows of cols to the ids of their keys, -1 where
// the key is absent. Rows of a column whose physical class differs from
// the stored one match nothing.
func (t *hashTable) find(cols []*types.Vector, sel []int, n int, ids []int32) []int32 {
	ids = resize(ids, n)
	if !t.classesMatch(cols) || len(t.hashes) == 0 {
		for j := range ids {
			ids[j] = -1
		}
		return ids
	}
	hs := t.hash(cols, sel, n)
	mask := uint64(len(t.slots) - 1)
	for j, h := range hs {
		i := selRow(sel, j)
		ids[j] = -1
		for pos := h >> t.shift; ; pos = (pos + 1) & mask {
			s := t.slots[pos]
			if s == 0 {
				break
			}
			if id := s - 1; t.hashes[id] == h && t.keyEq(t.keys, int(id), cols, i) {
				ids[j] = id
				break
			}
		}
	}
	return ids
}

// memBytes returns the table's resident footprint: slots, hashes and the
// stored keys.
func (t *hashTable) memBytes() int64 {
	n := 4*int64(len(t.slots)) + 8*int64(cap(t.hashes))
	for _, v := range t.keys {
		n += vectorMemBytes(v)
	}
	return n
}

// rehash rebuilds the slot array with n slots from the stored hashes.
func (t *hashTable) rehash(n int) {
	t.slots = make([]int32, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := uint64(n - 1)
	for id, h := range t.hashes {
		pos := h >> t.shift
		for t.slots[pos] != 0 {
			pos = (pos + 1) & mask
		}
		t.slots[pos] = int32(id) + 1
	}
}

// Hash mixing: each column's value hash is folded into the row hash
// FxHash-style (rotate, xor, multiply by an odd constant). The top bits
// index the slots; multiplication carries every input bit into them.
const (
	hashInit  = 0x243f6a8885a308d3
	hashMul   = 0x517cc1b727220a95
	nullValue = 0x9ae16a3b2f90404f
)

// hash computes the hash of each of the n rows of cols, one column at a
// time with a typed loop per physical class. A NULL hashes as a
// constant, whatever value its position stores.
func (t *hashTable) hash(cols []*types.Vector, sel []int, n int) []uint64 {
	hs := resize(t.hbuf, n)
	t.hbuf = hs
	for j := range hs {
		hs[j] = hashInit
	}
	for c, v := range cols {
		nulls := v.Nulls
		switch t.phys[c] {
		case types.Int64:
			xs := v.Ints
			for j := range hs {
				i := selRow(sel, j)
				x := uint64(xs[i])
				if i < len(nulls) && nulls[i] {
					x = nullValue
				}
				hs[j] = fold(hs[j], x)
			}
		case types.Float64:
			xs := v.Floats
			for j := range hs {
				i := selRow(sel, j)
				x := math.Float64bits(xs[i])
				if i < len(nulls) && nulls[i] {
					x = nullValue
				}
				hs[j] = fold(hs[j], x)
			}
		case types.Varchar:
			xs := v.Strs
			for j := range hs {
				i := selRow(sel, j)
				x := uint64(nullValue)
				if i >= len(nulls) || !nulls[i] {
					x = strHash(xs[i])
				}
				hs[j] = fold(hs[j], x)
			}
		case types.Bool:
			xs := v.Bools
			for j := range hs {
				i := selRow(sel, j)
				var x uint64
				if xs[i] {
					x = 1
				}
				if i < len(nulls) && nulls[i] {
					x = nullValue
				}
				hs[j] = fold(hs[j], x)
			}
		default: // a class with no values holds only NULLs
			for j := range hs {
				hs[j] = fold(hs[j], nullValue)
			}
		}
	}
	return hs
}

// strHash returns a string's value hash without a call for strings of
// up to 16 bytes. Up to seven bytes pack into the value exactly, with
// the length in the top byte; up to 16 bytes mix the first and last
// eight (which together cover the string) with the length. Longer
// strings use maphash.
func strHash(s string) uint64 {
	switch n := len(s); {
	case n < 8:
		x := uint64(n) << 56
		for k := 0; k < n; k++ {
			x |= uint64(s[k]) << (8 * k)
		}
		return x
	case n <= 16:
		lo, hi := load64(s[:8]), load64(s[n-8:])
		return bits.RotateLeft64(lo*hashMul, 29) ^ (hi + uint64(n)) ^ hi>>32
	default:
		return maphash.String(hashSeed, s)
	}
}

// load64 reads the first eight bytes of s, little-endian.
func load64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// fold mixes one column's value hash x into the row hash h.
func fold(h, x uint64) uint64 {
	return (bits.RotateLeft64(h, 5) ^ x) * hashMul
}

// keyEq reports whether row ai of a and row bi of b hold the same key.
// Both column sets have the table's physical classes.
func (t *hashTable) keyEq(a []*types.Vector, ai int, b []*types.Vector, bi int) bool {
	for c, p := range t.phys {
		x, y := a[c], b[c]
		xn, yn := x.IsNull(ai), y.IsNull(bi)
		if xn || yn {
			if xn != yn {
				return false
			}
			continue
		}
		switch p {
		case types.Int64:
			if x.Ints[ai] != y.Ints[bi] {
				return false
			}
		case types.Float64:
			if math.Float64bits(x.Floats[ai]) != math.Float64bits(y.Floats[bi]) {
				return false
			}
		case types.Varchar:
			if x.Strs[ai] != y.Strs[bi] {
				return false
			}
		case types.Bool:
			if x.Bools[ai] != y.Bools[bi] {
				return false
			}
		}
	}
	return true
}

// appendRows appends src's values at rows to dst, which has the same
// physical class. It gives the result Vector.Append would: NULL
// positions store the zero value, and a null bitmap, once present,
// covers every position.
func appendRows(dst, src *types.Vector, rows []int) {
	if len(rows) == 0 {
		return
	}
	base := dst.Len()
	switch dst.Typ.Physical() {
	case types.Int64:
		dst.Ints = reserve(dst.Ints, len(rows))
		for _, i := range rows {
			dst.Ints = append(dst.Ints, src.Ints[i])
		}
	case types.Float64:
		dst.Floats = reserve(dst.Floats, len(rows))
		for _, i := range rows {
			dst.Floats = append(dst.Floats, src.Floats[i])
		}
	case types.Varchar:
		dst.Strs = reserve(dst.Strs, len(rows))
		for _, i := range rows {
			dst.Strs = append(dst.Strs, src.Strs[i])
		}
	case types.Bool:
		dst.Bools = reserve(dst.Bools, len(rows))
		for _, i := range rows {
			dst.Bools = append(dst.Bools, src.Bools[i])
		}
	default:
		for _, i := range rows {
			dst.Append(src.Datum(i))
		}
		return
	}
	if src.Nulls == nil && dst.Nulls == nil {
		return
	}
	for k, i := range rows {
		if !src.IsNull(i) {
			continue
		}
		p := base + k
		switch dst.Typ.Physical() {
		case types.Int64:
			dst.Ints[p] = 0
		case types.Float64:
			dst.Floats[p] = 0
		case types.Varchar:
			dst.Strs[p] = ""
		case types.Bool:
			dst.Bools[p] = false
		}
		for len(dst.Nulls) <= p {
			dst.Nulls = append(dst.Nulls, false)
		}
		dst.Nulls[p] = true
	}
	for dst.Nulls != nil && len(dst.Nulls) < dst.Len() {
		dst.Nulls = append(dst.Nulls, false)
	}
}

// nonNullRows returns the rows among the n of sel at which no column of
// cols is NULL: sel itself when no column has a null bitmap, otherwise a
// new selection built in *buf (which keeps it for reuse).
func nonNullRows(cols []*types.Vector, sel []int, n int, buf *[]int) []int {
	hasNulls := false
	for _, v := range cols {
		hasNulls = hasNulls || v.Nulls != nil
	}
	if !hasNulls {
		return sel
	}
	out := (*buf)[:0]
	if out == nil {
		out = make([]int, 0, n)
	}
rows:
	for j := 0; j < n; j++ {
		i := selRow(sel, j)
		for _, v := range cols {
			if v.IsNull(i) {
				continue rows
			}
		}
		out = append(out, i)
	}
	*buf = out
	return out
}

// reserve returns s with room for n more elements, at least doubling
// its capacity when it grows, so a table of k keys reallocates each
// array about log2(k) times.
func reserve[T any](s []T, n int) []T {
	if need := len(s) + n; need > cap(s) {
		return slices.Grow(s, max(need, 2*cap(s))-len(s))
	}
	return s
}

// resize returns s with length n, reusing its array when large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
