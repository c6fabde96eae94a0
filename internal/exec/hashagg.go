package exec

import (
	"fmt"

	"eon/internal/expr"
	"eon/internal/types"
)

// AggKind enumerates the aggregation functions the engine executes.
type AggKind uint8

// Aggregate kinds. The *Merge kinds combine partial states during
// distributed final aggregation: counts are summed, sums summed, min/min
// and max/max taken, and averages merged from (sum, count) column pairs.
const (
	AggCountStar AggKind = iota + 1
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
	AggCountMerge
	AggAvgMerge
)

// AggDef is one aggregate output: kind plus its bound argument expression
// (nil for COUNT(*)). Name labels the output column.
type AggDef struct {
	Kind AggKind
	Arg  expr.Expr
	// ArgCount is the bound count column for AggAvgMerge (the second of
	// the partial (sum, count) pair).
	ArgCount expr.Expr
	Name     string
}

// resultType returns the output type of the aggregate.
func (a AggDef) resultType() types.Type {
	switch a.Kind {
	case AggCountStar, AggCount, AggCountMerge:
		return types.Int64
	case AggAvg, AggAvgMerge:
		return types.Float64
	case AggSum:
		if a.Arg.Type().Physical() == types.Float64 {
			return types.Float64
		}
		return types.Int64
	default: // Min/Max
		return a.Arg.Type()
	}
}

// partial state per group per aggregate.
type aggState struct {
	count int64
	sumI  int64
	sumF  float64
	min   types.Datum
	max   types.Datum
	init  bool
}

// HashAggregate groups rows by bound key expressions and computes
// aggregates. When Partial is set, AggAvg emits its (sum, count) state as
// two columns named Name and Name+"_cnt" for a downstream AggAvgMerge.
//
// With a limited memory governor and a spill store configured, grouped
// aggregation spills: when charging a new group would exceed the budget,
// the group table is written to local disk as a run sorted by encoded
// key bytes and the table resets; runs merge at the end by combining
// per-key partial states. Output order is then ascending key-byte order
// instead of first-seen order (SQL leaves it unspecified; budgeted
// queries wanting an order must sort). Without spilling, first-seen
// order and results are byte-identical to the ungoverned operator.
type HashAggregate struct {
	input   Operator
	keys    []expr.Expr
	aggs    []AggDef
	partial bool
	schema  types.Schema
	Eng     Engine

	// Mem and Spill, both set with a finite budget, enable spilling.
	// Configured by the executor, like Eng.
	Mem   *MemGovernor
	Spill SpillStore

	done bool
}

// NewHashAggregate builds a grouping operator. keyNames label the group
// key output columns.
func NewHashAggregate(input Operator, keys []expr.Expr, keyNames []string, aggs []AggDef, partial bool) *HashAggregate {
	var schema types.Schema
	for i, k := range keys {
		schema = append(schema, types.Column{Name: keyNames[i], Type: k.Type()})
	}
	for _, a := range aggs {
		if partial && a.Kind == AggAvg {
			// The partial AVG sum column is always Float64 (avgSum
			// accumulates in float regardless of the argument type).
			schema = append(schema, types.Column{Name: a.Name, Type: types.Float64})
			schema = append(schema, types.Column{Name: a.Name + "_cnt", Type: types.Int64})
			continue
		}
		schema = append(schema, types.Column{Name: a.Name, Type: a.resultType()})
	}
	return &HashAggregate{input: input, keys: keys, aggs: aggs, partial: partial, schema: schema}
}

// Schema implements Operator.
func (h *HashAggregate) Schema() types.Schema { return h.schema }

// Next implements Operator.
func (h *HashAggregate) Next() (*types.Batch, error) {
	if h.done {
		return nil, nil
	}
	h.done = true
	if h.Eng.Row {
		return h.nextRow()
	}
	// The spill path needs encoded key bytes per group (the run sort
	// order), so it replaces the shared hash table. Global aggregates
	// (no keys) hold one group and never need it.
	if h.Mem.Limited() && h.Spill != nil && len(h.keys) > 0 {
		return h.nextSpill()
	}
	return h.nextVec()
}

// nextVec is the vectorized aggregation path: key and argument
// expressions evaluate densely over the upstream selection, the batch's
// group ids come from one hashTable insert, and accumulation runs
// column-at-a-time per aggregate into one flat state array indexed
// gid*len(aggs)+ai. Group output order (first-seen) is identical to the
// row path.
func (h *HashAggregate) nextVec() (*types.Batch, error) {
	nAggs := len(h.aggs)
	var tbl *hashTable
	var states []aggState
	if len(h.keys) > 0 {
		keyTypes := make([]types.Type, len(h.keys))
		for i := range h.keys {
			keyTypes[i] = h.schema[i].Type
		}
		tbl = newHashTable(keyTypes, 0)
	} else {
		// A global aggregate is one group, present even over no rows.
		states = make([]aggState, nAggs)
	}
	keyVals := make([]*types.Vector, len(h.keys))
	argVals := make([]*types.Vector, nAggs)
	cntVals := make([]*types.Vector, nAggs)
	var gids []int32

	for {
		b, sel, err := pullSel(h.input)
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		m := selLen(b, sel)
		if m == 0 {
			continue
		}
		for i, k := range h.keys {
			if keyVals[i], err = expr.EvalVec(k, b, sel, h.Eng.Stats); err != nil {
				return nil, err
			}
		}
		for i, a := range h.aggs {
			if a.Arg != nil {
				if argVals[i], err = expr.EvalVec(a.Arg, b, sel, h.Eng.Stats); err != nil {
					return nil, err
				}
			}
			if a.ArgCount != nil {
				if cntVals[i], err = expr.EvalVec(a.ArgCount, b, sel, h.Eng.Stats); err != nil {
					return nil, err
				}
			}
		}

		// Resolve every row's group id for this batch.
		if tbl == nil {
			gids = resize(gids, m)
			clear(gids)
		} else {
			if gids, err = tbl.insert(keyVals, nil, m, gids); err != nil {
				return nil, err
			}
			if need := tbl.Len() * nAggs; need > len(states) {
				states = reserve(states, need-len(states))[:need]
			}
		}

		// Columnar accumulation: one pass per aggregate over the batch,
		// with typed fast paths for the count/sum/avg family.
		for ai := range h.aggs {
			a := h.aggs[ai]
			argv, cntv := argVals[ai], cntVals[ai]
			switch a.Kind {
			case AggCountStar:
				for _, gi := range gids {
					states[int(gi)*nAggs+ai].count++
				}
			case AggCount:
				for j, gi := range gids {
					if !argv.IsNull(j) {
						states[int(gi)*nAggs+ai].count++
					}
				}
			case AggSum, AggAvg:
				if argv.Typ.Physical() == types.Float64 {
					fs := argv.Floats
					for j, gi := range gids {
						if argv.IsNull(j) {
							continue
						}
						st := &states[int(gi)*nAggs+ai]
						st.count++
						st.sumF += fs[j]
						st.init = true
					}
				} else {
					is := argv.Ints // nil for non-numeric args, which sum as 0
					for j, gi := range gids {
						if argv.IsNull(j) {
							continue
						}
						var v int64
						if is != nil {
							v = is[j]
						}
						st := &states[int(gi)*nAggs+ai]
						st.count++
						st.sumI += v
						st.sumF += float64(v)
						st.init = true
					}
				}
			default:
				// Min/Max and the merge kinds keep the Datum-based
				// update, whose semantics are shared with the row path.
				for j, gi := range gids {
					var arg, cnt types.Datum
					if argv != nil {
						arg = argv.Datum(j)
					}
					if cntv != nil {
						cnt = cntv.Datum(j)
					}
					if err := states[int(gi)*nAggs+ai].update(a.Kind, arg, cnt); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	// The key columns are the table's stored keys; the aggregate columns
	// render from the flat state array.
	nGroups := 1
	var keyCols []*types.Vector
	if tbl != nil {
		nGroups, keyCols = tbl.Len(), tbl.keys
	}
	out := &types.Batch{Cols: append(make([]*types.Vector, 0, len(h.schema)), keyCols...)}
	for _, col := range h.schema[len(keyCols):] {
		out.Cols = append(out.Cols, types.NewVector(col.Type, nGroups))
	}
	for gi := 0; gi < nGroups; gi++ {
		c := len(keyCols)
		for ai, a := range h.aggs {
			st := &states[gi*nAggs+ai]
			if h.partial && a.Kind == AggAvg {
				out.Cols[c].Append(types.NewFloat(st.avgSum()))
				out.Cols[c+1].Append(types.NewInt(st.count))
				c += 2
				continue
			}
			out.Cols[c].Append(st.result(a))
			c++
		}
	}
	return out, nil
}

// assemble renders the accumulated groups in first-seen order, adding
// the implicit single group for a global aggregate over no rows.
func (h *HashAggregate) assemble(keyRows []types.Row, states [][]aggState) (*types.Batch, error) {
	if len(h.keys) == 0 && len(states) == 0 {
		keyRows = append(keyRows, nil)
		states = append(states, make([]aggState, len(h.aggs)))
	}
	out := types.NewBatch(h.schema, len(keyRows))
	for gi := range keyRows {
		out.AppendRow(h.renderGroup(keyRows[gi], states[gi]))
	}
	return out, nil
}

// renderGroup finalizes one group into an output row.
func (h *HashAggregate) renderGroup(keyRow types.Row, states []aggState) types.Row {
	r := make(types.Row, 0, len(h.schema))
	r = append(r, keyRow...)
	for ai, a := range h.aggs {
		st := &states[ai]
		if h.partial && a.Kind == AggAvg {
			r = append(r, types.NewFloat(st.avgSum()), types.NewInt(st.count))
			continue
		}
		r = append(r, st.result(a))
	}
	return r
}

// nextRow is the original row-engine aggregation path.
func (h *HashAggregate) nextRow() (*types.Batch, error) {
	groups := map[string]int{} // key -> group index
	var keyRows []types.Row    // materialized group key values
	var states [][]aggState

	var keyBuf []byte
	for {
		b, err := h.input.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		// Evaluate key expressions and aggregate arguments per batch.
		keyVals := make([]*types.Vector, len(h.keys))
		for i, k := range h.keys {
			v, err := expr.EvalBatch(k, b)
			if err != nil {
				return nil, err
			}
			keyVals[i] = v
		}
		argVals := make([]*types.Vector, len(h.aggs))
		cntVals := make([]*types.Vector, len(h.aggs))
		for i, a := range h.aggs {
			if a.Arg != nil {
				v, err := expr.EvalBatch(a.Arg, b)
				if err != nil {
					return nil, err
				}
				argVals[i] = v
			}
			if a.ArgCount != nil {
				v, err := expr.EvalBatch(a.ArgCount, b)
				if err != nil {
					return nil, err
				}
				cntVals[i] = v
			}
		}
		keyBatch := &types.Batch{Cols: keyVals}
		allKeyCols := make([]int, len(h.keys))
		for i := range allKeyCols {
			allKeyCols[i] = i
		}
		n := b.NumRows()
		for i := 0; i < n; i++ {
			var gi int
			if len(h.keys) > 0 {
				keyBuf = rowKey(keyBuf, keyBatch, i, allKeyCols)
				idx, ok := groups[string(keyBuf)]
				if !ok {
					idx = len(keyRows)
					groups[string(keyBuf)] = idx
					keyRows = append(keyRows, keyBatch.Row(i))
					states = append(states, make([]aggState, len(h.aggs)))
				}
				gi = idx
			} else {
				if len(states) == 0 {
					keyRows = append(keyRows, nil)
					states = append(states, make([]aggState, len(h.aggs)))
				}
				gi = 0
			}
			for ai := range h.aggs {
				var arg, cnt types.Datum
				if argVals[ai] != nil {
					arg = argVals[ai].Datum(i)
				}
				if cntVals[ai] != nil {
					cnt = cntVals[ai].Datum(i)
				}
				if err := states[gi][ai].update(h.aggs[ai].Kind, arg, cnt); err != nil {
					return nil, err
				}
			}
		}
	}

	return h.assemble(keyRows, states)
}

func (s *aggState) update(kind AggKind, arg, cnt types.Datum) error {
	switch kind {
	case AggCountStar:
		s.count++
	case AggCount:
		if !arg.Null {
			s.count++
		}
	case AggCountMerge:
		if !arg.Null {
			s.count += arg.I
		}
	case AggSum, AggAvg:
		if arg.Null {
			return nil
		}
		s.count++
		if arg.K.Physical() == types.Float64 {
			s.sumF += arg.F
		} else {
			s.sumI += arg.I
			s.sumF += float64(arg.I)
		}
		s.init = true
	case AggAvgMerge:
		if arg.Null || cnt.Null {
			return nil
		}
		s.sumF += arg.F
		s.count += cnt.I
		s.init = true
	case AggMin:
		if arg.Null {
			return nil
		}
		if !s.init || arg.Compare(s.min) < 0 {
			s.min = arg
		}
		if !s.init || arg.Compare(s.max) > 0 {
			s.max = arg
		}
		s.init = true
	case AggMax:
		if arg.Null {
			return nil
		}
		if !s.init || arg.Compare(s.max) > 0 {
			s.max = arg
		}
		if !s.init || arg.Compare(s.min) < 0 {
			s.min = arg
		}
		s.init = true
	default:
		return fmt.Errorf("exec: unknown aggregate kind %d", kind)
	}
	return nil
}

func (s *aggState) avgSum() float64 { return s.sumF }

func (s *aggState) result(a AggDef) types.Datum {
	switch a.Kind {
	case AggCountStar, AggCount, AggCountMerge:
		return types.NewInt(s.count)
	case AggSum:
		if !s.init {
			return types.NullDatum(a.resultType())
		}
		if a.resultType() == types.Float64 {
			return types.NewFloat(s.sumF)
		}
		return types.NewInt(s.sumI)
	case AggAvg, AggAvgMerge:
		if s.count == 0 {
			return types.NullDatum(types.Float64)
		}
		return types.NewFloat(s.sumF / float64(s.count))
	case AggMin:
		if !s.init {
			return types.NullDatum(a.resultType())
		}
		return s.min
	case AggMax:
		if !s.init {
			return types.NullDatum(a.resultType())
		}
		return s.max
	}
	return types.Datum{}
}
