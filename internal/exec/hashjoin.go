package exec

import (
	"eon/internal/types"
)

// HashJoin is an inner equi-join: the left (build) input is fully
// materialized, then the right (probe) input streams through. The
// output schema is the left schema followed by the right schema. Rows
// whose key has a NULL never match (SQL semantics), and key columns of
// different physical classes match nothing.
//
// The vectorized build resolves every build row's key to a hashTable id
// and lays the rows of each id out in CSR form: the build rows of id k
// are rows[start[k]:start[k+1]], in build-row order. A probe batch is
// looked up in one call, and each probe row emits its matches in that
// order, so the output is identical to the row engine's.
type HashJoin struct {
	build     Operator
	probe     Operator
	buildKeys []int
	probeKeys []int
	schema    types.Schema
	Eng       Engine

	// Mem, when set, is charged for the materialized build side and the
	// hash table for the lifetime of the probe (released when the probe
	// exhausts). The build side does not spill — grace hash join is an
	// open roadmap item — so the charge documents rather than bounds it.
	Mem *MemGovernor

	built    bool
	buildAll *types.Batch
	charged  int64

	// Vectorized engine: key ids and their build rows in CSR form.
	tbl   *hashTable
	start []int32
	rows  []int32
	// Per-probe-batch scratch, reused across batches.
	keyCols           []*types.Vector
	sel               []int
	ids               []int32
	leftIdx, rightIdx []int

	// Row engine: encoded key -> build row indexes.
	table map[string][]int
}

// NewHashJoin creates an inner hash join on build.cols == probe.cols.
func NewHashJoin(build, probe Operator, buildKeys, probeKeys []int) *HashJoin {
	schema := append(append(types.Schema{}, build.Schema()...), probe.Schema()...)
	return &HashJoin{
		build: build, probe: probe,
		buildKeys: buildKeys, probeKeys: probeKeys,
		schema: schema,
	}
}

// Schema implements Operator.
func (h *HashJoin) Schema() types.Schema { return h.schema }

func (h *HashJoin) buildTable() error {
	all, err := Collect(h.build)
	if err != nil {
		return err
	}
	h.buildAll = all
	h.built = true
	if h.Eng.Row {
		h.buildRowTable()
		// Batch bytes plus per-row hash-table entry overhead.
		h.charged = BatchMemBytes(all) + 16*int64(all.NumRows())
		h.Mem.Charge(h.charged)
		return nil
	}

	cols := keyColumns(h.keyCols[:0], all, h.buildKeys)
	var buf []int
	sel := nonNullRows(cols, nil, all.NumRows(), &buf)
	n := selLen(all, sel)
	keyTypes := make([]types.Type, len(cols))
	for c, v := range cols {
		keyTypes[c] = v.Typ
	}
	h.tbl = newHashTable(keyTypes, n)
	ids, err := h.tbl.insert(cols, sel, n, nil)
	if err != nil {
		return err
	}
	// Counting sort of the build rows by key id: count each id into
	// start[id+1], prefix-sum so start[id] is the id's first position,
	// fill (advancing start[id] as a cursor), then shift back.
	nk := h.tbl.Len()
	h.start = make([]int32, nk+1)
	for _, id := range ids {
		h.start[id+1]++
	}
	for k := 1; k <= nk; k++ {
		h.start[k] += h.start[k-1]
	}
	h.rows = make([]int32, len(ids))
	for j, id := range ids {
		h.rows[h.start[id]] = int32(selRow(sel, j))
		h.start[id]++
	}
	copy(h.start[1:], h.start[:nk])
	h.start[0] = 0
	// The table's scratch is sized to the whole build side; probe
	// batches size their own.
	h.tbl.hbuf, h.tbl.pend = nil, nil

	h.charged = BatchMemBytes(all) + h.tbl.memBytes() + 4*int64(len(h.start)+len(h.rows))
	h.Mem.Charge(h.charged)
	return nil
}

// keyColumns returns the key columns of b, reusing buf.
func keyColumns(buf []*types.Vector, b *types.Batch, keys []int) []*types.Vector {
	for _, c := range keys {
		buf = append(buf, b.Cols[c])
	}
	return buf
}

// Next implements Operator.
func (h *HashJoin) Next() (*types.Batch, error) {
	if !h.built {
		if err := h.buildTable(); err != nil {
			return nil, err
		}
	}
	for {
		var pb *types.Batch
		var sel []int
		var err error
		if h.Eng.Row {
			pb, err = h.probe.Next()
		} else {
			pb, sel, err = pullSel(h.probe)
		}
		if err != nil || pb == nil {
			h.Mem.Release(h.charged)
			h.charged = 0
			return nil, err
		}
		var leftIdx, rightIdx []int
		if h.Eng.Row {
			leftIdx, rightIdx = h.probeRow(pb)
		} else {
			leftIdx, rightIdx = h.probeVec(pb, sel)
		}
		if len(leftIdx) == 0 {
			continue
		}
		left := h.buildAll.Gather(leftIdx)
		right := pb.Gather(rightIdx)
		out := &types.Batch{Cols: append(left.Cols, right.Cols...)}
		return out, nil
	}
}

// probeVec looks up one probe batch and returns the matching build and
// probe row indexes, in probe-row order and build-row order within a
// probe row. The returned slices are reused by the next call.
func (h *HashJoin) probeVec(pb *types.Batch, sel []int) (leftIdx, rightIdx []int) {
	h.keyCols = keyColumns(h.keyCols[:0], pb, h.probeKeys)
	sel = nonNullRows(h.keyCols, sel, selLen(pb, sel), &h.sel)
	n := selLen(pb, sel)
	h.ids = h.tbl.find(h.keyCols, sel, n, h.ids)
	total := 0
	for _, id := range h.ids {
		if id >= 0 {
			total += int(h.start[id+1] - h.start[id])
		}
	}
	if cap(h.leftIdx) < total {
		h.leftIdx = make([]int, 0, total)
		h.rightIdx = make([]int, 0, total)
	}
	leftIdx, rightIdx = h.leftIdx[:0], h.rightIdx[:0]
	for j, id := range h.ids {
		if id < 0 {
			continue
		}
		i := selRow(sel, j)
		for _, bi := range h.rows[h.start[id]:h.start[id+1]] {
			leftIdx = append(leftIdx, int(bi))
			rightIdx = append(rightIdx, i)
		}
	}
	return leftIdx, rightIdx
}

// buildRowTable builds the row engine's table over encoded keys.
func (h *HashJoin) buildRowTable() {
	all := h.buildAll
	h.table = make(map[string][]int, all.NumRows())
	var key []byte
	for i := 0; i < all.NumRows(); i++ {
		if anyNull(all, i, h.buildKeys) {
			continue
		}
		key = rowKey(key, all, i, h.buildKeys)
		h.table[string(key)] = append(h.table[string(key)], i)
	}
}

// probeRow is the row engine's probe of one batch.
func (h *HashJoin) probeRow(pb *types.Batch) (leftIdx, rightIdx []int) {
	var key []byte
	for i := 0; i < pb.NumRows(); i++ {
		if anyNull(pb, i, h.probeKeys) {
			continue
		}
		key = rowKey(key, pb, i, h.probeKeys)
		for _, bi := range h.table[string(key)] {
			leftIdx = append(leftIdx, bi)
			rightIdx = append(rightIdx, i)
		}
	}
	return leftIdx, rightIdx
}

func anyNull(b *types.Batch, i int, cols []int) bool {
	for _, c := range cols {
		if b.Cols[c].IsNull(i) {
			return true
		}
	}
	return false
}
