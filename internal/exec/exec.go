// Package exec implements the vectorized execution engine: pull-based
// operators over column batches — scan sources, filter, project, hash
// join, hash aggregation (with partial/final modes for distributed
// plans), sort, limit, distinct and hash repartitioning for exchanges.
// The same operators execute in both Enterprise and Eon modes; only the
// scan sources and data placement differ (paper §4: "Eon runs Vertica's
// standard cost-based distributed optimizer, generating query plans
// equivalent to Enterprise mode").
package exec

import (
	"encoding/binary"
	"math"

	"eon/internal/expr"
	"eon/internal/types"
)

// Operator is a pull-based batch iterator. Next returns nil when the
// stream is exhausted.
type Operator interface {
	Schema() types.Schema
	Next() (*types.Batch, error)
}

// Engine selects an operator's evaluation strategy. The zero value is
// the vectorized engine (typed kernels over selection vectors); Row
// forces the original row-at-a-time path (EvalBatch/FilterBatch), kept
// for differential testing and benchmarking. Stats, when set, receives
// the vectorized/fallback row counters from expression evaluation.
type Engine struct {
	Row   bool
	Stats *expr.VecStats
}

// selOperator is implemented by operators that can hand their output to
// a downstream consumer as an un-gathered batch plus a selection vector
// (nil = every row), deferring or eliminating the copy. Consumers use
// pullSel, which degrades to Next for plain operators.
type selOperator interface {
	nextSel() (*types.Batch, []int, error)
}

// pullSel pulls the next batch from op in (batch, selection) form.
func pullSel(op Operator) (*types.Batch, []int, error) {
	if so, ok := op.(selOperator); ok {
		return so.nextSel()
	}
	b, err := op.Next()
	return b, nil, err
}

// selRow maps a dense position to a batch row index.
func selRow(sel []int, j int) int {
	if sel == nil {
		return j
	}
	return sel[j]
}

// selLen returns the number of rows a selection covers.
func selLen(b *types.Batch, sel []int) int {
	if sel == nil {
		return b.NumRows()
	}
	return len(sel)
}

// Source replays a fixed list of batches (used for materialized inputs,
// WOS contents, and network-received fragments).
type Source struct {
	schema  types.Schema
	batches []*types.Batch
	pos     int
}

// NewSource wraps batches as an Operator.
func NewSource(schema types.Schema, batches ...*types.Batch) *Source {
	return &Source{schema: schema, batches: batches}
}

// Schema implements Operator.
func (s *Source) Schema() types.Schema { return s.schema }

// Next implements Operator.
func (s *Source) Next() (*types.Batch, error) {
	for s.pos < len(s.batches) {
		b := s.batches[s.pos]
		s.pos++
		if b != nil && b.NumRows() > 0 {
			return b, nil
		}
	}
	return nil, nil
}

// UnionAll concatenates the streams of several same-schema operators.
type UnionAll struct {
	inputs []Operator
	pos    int
}

// NewUnionAll unions inputs; at least one input is required.
func NewUnionAll(inputs ...Operator) *UnionAll {
	return &UnionAll{inputs: inputs}
}

// Schema implements Operator.
func (u *UnionAll) Schema() types.Schema { return u.inputs[0].Schema() }

// Next implements Operator.
func (u *UnionAll) Next() (*types.Batch, error) {
	for u.pos < len(u.inputs) {
		b, err := u.inputs[u.pos].Next()
		if err != nil {
			return nil, err
		}
		if b != nil {
			return b, nil
		}
		u.pos++
	}
	return nil, nil
}

// Limit passes through at most N rows.
type Limit struct {
	input Operator
	n     int64
	seen  int64
}

// NewLimit wraps input with a row cap.
func NewLimit(input Operator, n int64) *Limit {
	return &Limit{input: input, n: n}
}

// Schema implements Operator.
func (l *Limit) Schema() types.Schema { return l.input.Schema() }

// Next implements Operator.
func (l *Limit) Next() (*types.Batch, error) {
	if l.seen >= l.n {
		return nil, nil
	}
	b, err := l.input.Next()
	if err != nil || b == nil {
		return nil, err
	}
	remain := l.n - l.seen
	if int64(b.NumRows()) > remain {
		b = b.Slice(0, int(remain))
	}
	l.seen += int64(b.NumRows())
	return b, nil
}

// Collect drains an operator into a single batch.
func Collect(op Operator) (*types.Batch, error) {
	out := types.NewBatch(op.Schema(), 0)
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out.AppendBatch(b)
	}
}

// rowKey builds a hashable, collision-free composite key from the given
// columns of row i: each field is type-tagged and length-prefixed.
func rowKey(buf []byte, b *types.Batch, i int, cols []int) []byte {
	buf = buf[:0]
	for _, c := range cols {
		v := b.Cols[c]
		if v.IsNull(i) {
			buf = append(buf, 0)
			continue
		}
		switch v.Typ.Physical() {
		case types.Int64:
			buf = append(buf, 1)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Ints[i]))
		case types.Float64:
			buf = append(buf, 2)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Floats[i]))
		case types.Varchar:
			buf = append(buf, 3)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Strs[i])))
			buf = append(buf, v.Strs[i]...)
		case types.Bool:
			if v.Bools[i] {
				buf = append(buf, 5)
			} else {
				buf = append(buf, 4)
			}
		}
	}
	return buf
}

// Distinct removes duplicate rows (over all columns). The vectorized
// engine inserts each batch into one hashTable over every column and
// keeps exactly the rows that insert a new key, so NULLs are equal to
// each other and floats compare by bit pattern, as in the row engine.
type Distinct struct {
	input Operator
	done  bool
	Eng   Engine

	tbl  *hashTable
	ids  []int32
	keep []int

	seen map[string]struct{} // row engine: encoded rows seen
}

// NewDistinct wraps input with duplicate elimination.
func NewDistinct(input Operator) *Distinct {
	return &Distinct{input: input}
}

// Schema implements Operator.
func (d *Distinct) Schema() types.Schema { return d.input.Schema() }

// Next implements Operator.
func (d *Distinct) Next() (*types.Batch, error) {
	if d.done {
		return nil, nil
	}
	if d.Eng.Row {
		return d.nextRow()
	}
	if d.tbl == nil {
		schema := d.input.Schema()
		keyTypes := make([]types.Type, len(schema))
		for i, c := range schema {
			keyTypes[i] = c.Type
		}
		d.tbl = newHashTable(keyTypes, 0)
	}
	for {
		b, sel, err := pullSel(d.input)
		if err != nil {
			return nil, err
		}
		if b == nil {
			d.done = true
			return nil, nil
		}
		next := int32(d.tbl.Len())
		if d.ids, err = d.tbl.insert(b.Cols, sel, selLen(b, sel), d.ids); err != nil {
			return nil, err
		}
		// New keys take ascending ids, so a row is new exactly when its
		// id is the next one not yet handed out.
		keep := d.keep[:0]
		for j, id := range d.ids {
			if id == next {
				keep = append(keep, selRow(sel, j))
				next++
			}
		}
		d.keep = keep
		if len(keep) > 0 {
			return b.Gather(keep), nil
		}
	}
}

// nextRow is the original row-engine path.
func (d *Distinct) nextRow() (*types.Batch, error) {
	if d.seen == nil {
		d.seen = map[string]struct{}{}
	}
	allCols := make([]int, len(d.input.Schema()))
	for i := range allCols {
		allCols[i] = i
	}
	var key []byte
	for {
		b, err := d.input.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			d.done = true
			return nil, nil
		}
		var keep []int
		for i := 0; i < b.NumRows(); i++ {
			key = rowKey(key, b, i, allCols)
			if _, ok := d.seen[string(key)]; !ok {
				d.seen[string(key)] = struct{}{}
				keep = append(keep, i)
			}
		}
		if len(keep) > 0 {
			return b.Gather(keep), nil
		}
	}
}
