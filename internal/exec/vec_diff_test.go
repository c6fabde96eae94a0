package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"eon/internal/expr"
	"eon/internal/obs"
	"eon/internal/types"
)

// Operator-level differential tests: every operator run on the
// vectorized engine must produce byte-identical output (values, NULLs,
// row order) to the row engine. Output orders are deterministic in both
// engines — filters/joins preserve stream order and aggregates emit
// groups in first-seen order — so outputs are compared positionally.

var diffOpSchema = types.Schema{
	{Name: "k", Type: types.Int64},
	{Name: "v", Type: types.Float64},
	{Name: "s", Type: types.Varchar},
	{Name: "d", Type: types.Date},
}

func randOpBatch(r *rand.Rand, n int, nullProb float64) *types.Batch {
	b := types.NewBatch(diffOpSchema, n)
	words := []string{"STEEL", "small steel box", "Brand#12", "Brand#22", "x", ""}
	for i := 0; i < n; i++ {
		row := make(types.Row, len(diffOpSchema))
		for c, col := range diffOpSchema {
			if r.Float64() < nullProb {
				row[c] = types.NullDatum(col.Type)
				continue
			}
			switch col.Type {
			case types.Int64:
				row[c] = types.NewInt(int64(r.Intn(12)))
			case types.Float64:
				row[c] = types.NewFloat(float64(r.Intn(200)) / 8)
			case types.Varchar:
				row[c] = types.NewString(words[r.Intn(len(words))])
			case types.Date:
				row[c] = types.NewDate(int64(10000 + r.Intn(400)))
			}
		}
		b.AppendRow(row)
	}
	return b
}

func mustBind(t *testing.T, e expr.Expr, s types.Schema) expr.Expr {
	t.Helper()
	if err := expr.Bind(e, s); err != nil {
		t.Fatalf("bind: %v", err)
	}
	return e
}

func batchesEqual(t *testing.T, label string, want, got *types.Batch) {
	t.Helper()
	if want.NumCols() != got.NumCols() {
		t.Fatalf("%s: %d cols vs %d", label, got.NumCols(), want.NumCols())
	}
	if want.NumRows() != got.NumRows() {
		t.Fatalf("%s: %d rows vs %d (row engine)", label, got.NumRows(), want.NumRows())
	}
	for c := 0; c < want.NumCols(); c++ {
		wv, gv := want.Cols[c], got.Cols[c]
		if wv.Typ != gv.Typ {
			t.Fatalf("%s: col %d type %v vs %v", label, c, gv.Typ, wv.Typ)
		}
		for i := 0; i < wv.Len(); i++ {
			wd, gd := wv.Datum(i), gv.Datum(i)
			// Floats compare by bit pattern: Compare would equate -0.0
			// with +0.0 and NaN with everything.
			sameFloat := wd.K.Physical() != types.Float64 || math.Float64bits(wd.F) == math.Float64bits(gd.F)
			if wd.Null != gd.Null || (!wd.Null && (wd.Compare(gd) != 0 || !sameFloat)) {
				t.Fatalf("%s: col %d row %d: vec=%v row=%v", label, c, i, gd, wd)
			}
		}
	}
}

// runBoth builds the same operator tree twice (the constructor is
// called once per engine because operators are single-use), collects
// both, and compares.
func runBoth(t *testing.T, label string, build func(eng Engine) Operator) {
	t.Helper()
	stats := &expr.VecStats{}
	rowOut, errRow := Collect(build(Engine{Row: true}))
	vecOut, errVec := Collect(build(Engine{Stats: stats}))
	if (errRow == nil) != (errVec == nil) {
		t.Fatalf("%s: error mismatch row=%v vec=%v", label, errRow, errVec)
	}
	if errRow != nil {
		return
	}
	batchesEqual(t, label, rowOut, vecOut)
}

func randPred(r *rand.Rand) expr.Expr {
	preds := []func() expr.Expr{
		func() expr.Expr {
			return &expr.Binary{Op: expr.OpGt, L: &expr.ColumnRef{Name: "v"},
				R: &expr.Literal{Value: types.NewFloat(float64(r.Intn(20)))}}
		},
		func() expr.Expr {
			return &expr.Like{E: &expr.ColumnRef{Name: "s"}, Pattern: "%STEEL%", Negate: r.Intn(2) == 0}
		},
		func() expr.Expr {
			return &expr.In{E: &expr.ColumnRef{Name: "k"}, List: []expr.Expr{
				&expr.Literal{Value: types.NewInt(int64(r.Intn(6)))},
				&expr.Literal{Value: types.NewInt(int64(r.Intn(12)))},
			}}
		},
		func() expr.Expr {
			return &expr.Binary{Op: expr.OpAnd,
				L: &expr.Binary{Op: expr.OpGe, L: &expr.ColumnRef{Name: "k"},
					R: &expr.Literal{Value: types.NewInt(int64(r.Intn(6)))}},
				R: &expr.Binary{Op: expr.OpOr,
					L: &expr.IsNull{E: &expr.ColumnRef{Name: "v"}},
					R: &expr.Binary{Op: expr.OpLt, L: &expr.ColumnRef{Name: "v"},
						R: &expr.Literal{Value: types.NewFloat(18)}}}}
		},
	}
	return preds[r.Intn(len(preds))]()
}

func TestFilterProjectDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for iter := 0; iter < 120; iter++ {
		n := []int{0, 1, 7, 40, 130}[r.Intn(5)]
		nullProb := []float64{0, 0.2, 1}[r.Intn(3)]
		batches := []*types.Batch{
			randOpBatch(r, n, nullProb),
			randOpBatch(r, r.Intn(30), nullProb),
		}
		seed := r.Int63()
		label := fmt.Sprintf("iter %d n=%d null=%.1f", iter, n, nullProb)
		runBoth(t, label, func(eng Engine) Operator {
			pr := rand.New(rand.NewSource(seed))
			pred := mustBind(t, randPred(pr), diffOpSchema)
			proj := []expr.Expr{
				mustBind(t, &expr.Binary{Op: expr.OpMul, L: &expr.ColumnRef{Name: "v"},
					R: &expr.Binary{Op: expr.OpSub, L: &expr.Literal{Value: types.NewFloat(1)},
						R: &expr.ColumnRef{Name: "v"}}}, diffOpSchema),
				mustBind(t, &expr.ColumnRef{Name: "k"}, diffOpSchema),
				mustBind(t, &expr.Case{Whens: []expr.When{{
					Cond: mustBind(t, randPred(pr), diffOpSchema),
					Then: &expr.ColumnRef{Name: "v"}}},
					Else: &expr.Literal{Value: types.NewInt(0)}}, diffOpSchema),
			}
			src := NewSource(diffOpSchema, batches...)
			f := NewFilter(src, pred)
			f.Eng = eng
			p := NewProject(f, proj, []string{"e1", "e2", "e3"})
			p.Eng = eng
			return p
		})
	}
}

func TestHashAggregateDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	keySets := [][]expr.Expr{
		nil, // global aggregate
		{&expr.ColumnRef{Name: "k"}},
		{&expr.ColumnRef{Name: "s"}},
		{&expr.ColumnRef{Name: "k"}, &expr.ColumnRef{Name: "s"}},
		{&expr.ColumnRef{Name: "k"}, &expr.ColumnRef{Name: "d"}},
	}
	for iter := 0; iter < 100; iter++ {
		ks := keySets[iter%len(keySets)]
		n := []int{0, 1, 13, 90}[r.Intn(4)]
		nullProb := []float64{0, 0.25, 1}[r.Intn(3)]
		batches := []*types.Batch{randOpBatch(r, n, nullProb), randOpBatch(r, r.Intn(40), nullProb)}
		partial := r.Intn(2) == 0
		label := fmt.Sprintf("iter %d keys=%d n=%d null=%.2f partial=%v", iter, len(ks), n, nullProb, partial)
		runBoth(t, label, func(eng Engine) Operator {
			var keys []expr.Expr
			var names []string
			for i, k := range ks {
				keys = append(keys, mustBind(t, expr.Clone(k), diffOpSchema))
				names = append(names, fmt.Sprintf("g%d", i))
			}
			aggs := []AggDef{
				{Kind: AggCountStar, Name: "cnt"},
				{Kind: AggCount, Arg: mustBind(t, &expr.ColumnRef{Name: "v"}, diffOpSchema), Name: "cntv"},
				{Kind: AggSum, Arg: mustBind(t, &expr.ColumnRef{Name: "v"}, diffOpSchema), Name: "sumv"},
				{Kind: AggSum, Arg: mustBind(t, &expr.ColumnRef{Name: "k"}, diffOpSchema), Name: "sumk"},
				{Kind: AggAvg, Arg: mustBind(t, &expr.ColumnRef{Name: "v"}, diffOpSchema), Name: "avgv"},
				{Kind: AggMin, Arg: mustBind(t, &expr.ColumnRef{Name: "d"}, diffOpSchema), Name: "mind"},
				{Kind: AggMax, Arg: mustBind(t, &expr.ColumnRef{Name: "s"}, diffOpSchema), Name: "maxs"},
			}
			agg := NewHashAggregate(NewSource(diffOpSchema, batches...), keys, names, aggs, partial)
			agg.Eng = eng
			return agg
		})
	}
}

func TestHashJoinDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for iter := 0; iter < 60; iter++ {
		nullProb := []float64{0, 0.2}[r.Intn(2)]
		buildB := randOpBatch(r, r.Intn(40), nullProb)
		probeB := []*types.Batch{randOpBatch(r, r.Intn(60), nullProb), randOpBatch(r, r.Intn(20), nullProb)}
		multi := r.Intn(2) == 0
		label := fmt.Sprintf("iter %d multi=%v", iter, multi)
		runBoth(t, label, func(eng Engine) Operator {
			bk, pk := []int{0}, []int{0}
			if multi {
				bk, pk = []int{0, 2}, []int{0, 2}
			}
			j := NewHashJoin(NewSource(diffOpSchema, buildB), NewSource(diffOpSchema, probeB...), bk, pk)
			j.Eng = eng
			return j
		})
	}
}

func TestDistinctDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	oneCol := types.Schema{{Name: "k", Type: types.Int64}}
	for iter := 0; iter < 60; iter++ {
		nullProb := []float64{0, 0.3, 1}[r.Intn(3)]
		full := []*types.Batch{randOpBatch(r, r.Intn(50), nullProb), randOpBatch(r, r.Intn(50), nullProb)}
		// Single-column batches: one Int64 key column.
		narrow := make([]*types.Batch, len(full))
		for i, b := range full {
			narrow[i] = &types.Batch{Cols: b.Cols[:1]}
		}
		label := fmt.Sprintf("iter %d null=%.1f", iter, nullProb)
		runBoth(t, label+" all-cols", func(eng Engine) Operator {
			d := NewDistinct(NewSource(diffOpSchema, full...))
			d.Eng = eng
			return d
		})
		runBoth(t, label+" int-col", func(eng Engine) Operator {
			d := NewDistinct(NewSource(oneCol, narrow...))
			d.Eng = eng
			return d
		})
	}
}

// TestFilterChainComposesSelections checks that stacked filters pass
// selection vectors through nextSel without gathering in between, and
// still match the row engine.
func TestFilterChainComposesSelections(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	batches := []*types.Batch{randOpBatch(r, 200, 0.15), randOpBatch(r, 77, 0.15)}
	runBoth(t, "filter chain", func(eng Engine) Operator {
		f1 := NewFilter(NewSource(diffOpSchema, batches...),
			mustBind(t, &expr.Binary{Op: expr.OpGt, L: &expr.ColumnRef{Name: "v"},
				R: &expr.Literal{Value: types.NewFloat(5)}}, diffOpSchema))
		f1.Eng = eng
		f2 := NewFilter(f1,
			mustBind(t, &expr.Like{E: &expr.ColumnRef{Name: "s"}, Pattern: "%a%"}, diffOpSchema))
		f2.Eng = eng
		f3 := NewFilter(f2,
			mustBind(t, &expr.Binary{Op: expr.OpLt, L: &expr.ColumnRef{Name: "k"},
				R: &expr.Literal{Value: types.NewInt(9)}}, diffOpSchema))
		f3.Eng = eng
		return f3
	})
}

// The tests below aim at the shared hash table behind the vectorized
// GROUP BY, DISTINCT and hash join, with the row engine as oracle: key
// counts that make the table grow many times, special floats, Bool and
// all-NULL keys, string keys that would collide if concatenated, join
// keys of different physical classes, and duplicate build keys.

var keyTestSchema = types.Schema{
	{Name: "i", Type: types.Int64},
	{Name: "f", Type: types.Float64},
	{Name: "s", Type: types.Varchar},
	{Name: "t", Type: types.Varchar},
	{Name: "b", Type: types.Bool},
}

// keyBatches returns nb batches of n rows each, with column values drawn
// by gen (row index across all batches, column) and NULL with
// probability nullProb.
func keyBatches(r *rand.Rand, nb, n int, nullProb float64, gen func(row, col int) types.Datum) []*types.Batch {
	var out []*types.Batch
	row := 0
	for bi := 0; bi < nb; bi++ {
		b := types.NewBatch(keyTestSchema, n)
		for k := 0; k < n; k++ {
			vals := make(types.Row, len(keyTestSchema))
			for c, col := range keyTestSchema {
				if r.Float64() < nullProb {
					vals[c] = types.NullDatum(col.Type)
				} else {
					vals[c] = gen(row, c)
				}
			}
			b.AppendRow(vals)
			row++
		}
		out = append(out, b)
	}
	return out
}

// specialFloats covers the values whose equality differs between
// bit-pattern and numeric comparison.
var specialFloats = []float64{
	math.Copysign(0, -1), 0, math.NaN(), math.Float64frombits(0x7ff8000000000002),
	math.Inf(1), math.Inf(-1), 1.5, -1.5,
}

// keyGen draws small-domain keys of every class, including special
// floats and string pairs that collide when concatenated.
func keyGen(r *rand.Rand, intDomain int) func(row, col int) types.Datum {
	pairs := [][2]string{{"a", "bc"}, {"ab", "c"}, {"abc", ""}, {"", "abc"}, {"a", "b"}}
	return func(row, col int) types.Datum {
		switch col {
		case 0:
			return types.NewInt(int64(r.Intn(intDomain)))
		case 1:
			return types.NewFloat(specialFloats[r.Intn(len(specialFloats))])
		case 2, 3:
			// Columns s and t take the two halves of one pair, so rows
			// hold combinations that collide when concatenated.
			return types.NewString(pairs[row%len(pairs)][col-2])
		default:
			return types.NewBool(r.Intn(2) == 0)
		}
	}
}

func bindCols(t *testing.T, names ...string) ([]expr.Expr, []string) {
	var keys []expr.Expr
	for _, n := range names {
		keys = append(keys, mustBind(t, &expr.ColumnRef{Name: n}, keyTestSchema))
	}
	return keys, names
}

func TestHashTableKeyShapesDifferential(t *testing.T) {
	keySets := [][]string{
		{"i"}, {"f"}, {"b"}, {"s", "t"}, {"f", "b"}, {"b", "s", "i"}, {"i", "f", "s", "t", "b"},
	}
	r := rand.New(rand.NewSource(21))
	for _, nullProb := range []float64{0, 0.2, 1} {
		for _, big := range []bool{false, true} {
			nb, n, domain := 2, 60, 5
			if big {
				// ≥5,000 distinct keys across batches: the table grows
				// from its minimum size many times.
				nb, n, domain = 12, 1000, 9000
			}
			batches := keyBatches(r, nb, n, nullProb, keyGen(r, domain))
			for _, ks := range keySets {
				label := fmt.Sprintf("keys=%v null=%.1f big=%v", ks, nullProb, big)
				runBoth(t, label+" agg", func(eng Engine) Operator {
					keys, names := bindCols(t, ks...)
					aggs := []AggDef{
						{Kind: AggCountStar, Name: "n"},
						{Kind: AggSum, Arg: mustBind(t, &expr.ColumnRef{Name: "f"}, keyTestSchema), Name: "sf"},
						{Kind: AggMin, Arg: mustBind(t, &expr.ColumnRef{Name: "s"}, keyTestSchema), Name: "ms"},
					}
					agg := NewHashAggregate(NewSource(keyTestSchema, batches...), keys, names, aggs, false)
					agg.Eng = eng
					return agg
				})
				runBoth(t, label+" distinct", func(eng Engine) Operator {
					keys, names := bindCols(t, ks...)
					p := NewProject(NewSource(keyTestSchema, batches...), keys, names)
					p.Eng = eng
					d := NewDistinct(p)
					d.Eng = eng
					return d
				})
			}
		}
	}
}

func TestHashJoinKeyShapesDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	cases := []struct {
		name         string
		bk, pk       []int
		nb, n, probe int
		domain       int
	}{
		{"int", []int{0}, []int{0}, 1, 40, 60, 10},
		{"float-specials", []int{1}, []int{1}, 1, 40, 60, 10},
		{"bool", []int{4}, []int{4}, 1, 30, 30, 10},
		{"string-pairs", []int{2, 3}, []int{2, 3}, 1, 40, 60, 10},
		{"mixed", []int{4, 1, 0}, []int{4, 1, 0}, 1, 80, 80, 3},
		// Thousands of build keys, many duplicated (matches must come out
		// in build-row order), built from several batches.
		{"many", []int{0}, []int{0}, 6, 1000, 2000, 7000},
		// Different physical classes match nothing, as with rowKey.
		{"int-vs-float", []int{0}, []int{1}, 1, 40, 60, 3},
		{"string-vs-int", []int{2}, []int{0}, 1, 40, 60, 3},
	}
	for _, tc := range cases {
		for _, nullProb := range []float64{0, 0.2, 1} {
			gen := keyGen(r, tc.domain)
			build := keyBatches(r, tc.nb, tc.n, nullProb, gen)
			probe := keyBatches(r, 3, tc.probe/3+1, nullProb, gen)
			label := fmt.Sprintf("%s null=%.1f", tc.name, nullProb)
			runBoth(t, label, func(eng Engine) Operator {
				j := NewHashJoin(NewSource(keyTestSchema, build...), NewSource(keyTestSchema, probe...), tc.bk, tc.pk)
				j.Eng = eng
				return j
			})
		}
	}
}

// TestHashTableKeyEquality checks keyEq against rowKey on pairs chosen
// to differ in one column only. Full-hash comparison screens almost
// every unequal pair before keyEq runs, so the operator differentials
// above seldom reach it.
func TestHashTableKeyEquality(t *testing.T) {
	keyTypes := []types.Type{types.Int64, types.Float64, types.Varchar, types.Varchar, types.Bool}
	null := func(c int) types.Datum { return types.NullDatum(keyTypes[c]) }
	base := types.Row{types.NewInt(7), types.NewFloat(0), types.NewString("a"), types.NewString("bc"), types.NewBool(true)}
	variants := [][]types.Datum{
		{types.NewInt(0), types.NewInt(-7), null(0)},
		{types.NewFloat(math.Copysign(0, -1)), types.NewFloat(math.NaN()),
			types.NewFloat(math.Float64frombits(0x7ff8000000000002)), null(1)},
		{types.NewString("ab"), types.NewString(""), null(2)},
		{types.NewString("c"), types.NewString(""), null(3)},
		{types.NewBool(false), null(4)},
	}
	schema := make(types.Schema, len(keyTypes))
	for c, typ := range keyTypes {
		schema[c] = types.Column{Name: fmt.Sprint(c), Type: typ}
	}
	rows := []types.Row{base}
	for c, vs := range variants {
		for _, v := range vs {
			r := append(types.Row{}, base...)
			r[c] = v
			rows = append(rows, r)
		}
	}
	// Every row once more with column 2 and 3 swapped in as ("ab", "c"),
	// the concatenation twin of ("a", "bc").
	for _, r := range rows[:len(rows):len(rows)] {
		r2 := append(types.Row{}, r...)
		r2[2], r2[3] = types.NewString("ab"), types.NewString("c")
		rows = append(rows, r2)
	}
	b := types.BatchFromRows(schema, rows)
	all := []int{0, 1, 2, 3, 4}
	tbl := newHashTable(keyTypes, 0)
	var ka, kb []byte
	for i := range rows {
		for j := range rows {
			ka = rowKey(ka, b, i, all)
			kb = rowKey(kb, b, j, all)
			if want, got := string(ka) == string(kb), tbl.keyEq(b.Cols, i, b.Cols, j); got != want {
				t.Fatalf("keyEq(%v, %v) = %v, rowKey says %v", rows[i], rows[j], got, want)
			}
		}
	}
}

// TestHashTableNullsIgnoreStoredValues checks that NULLs form one key
// whatever their slots hold: expression kernels leave arbitrary values
// under NULLs, where batches built from rows hold zeros.
func TestHashTableNullsIgnoreStoredValues(t *testing.T) {
	nulls := []bool{true, true, false}
	for _, v := range []*types.Vector{
		{Typ: types.Int64, Ints: []int64{5, 9, 5}, Nulls: nulls},
		{Typ: types.Float64, Floats: []float64{1, 2, 1}, Nulls: nulls},
		{Typ: types.Varchar, Strs: []string{"x", "y", "x"}, Nulls: nulls},
		{Typ: types.Bool, Bools: []bool{true, false, true}, Nulls: nulls},
	} {
		tbl := newHashTable([]types.Type{v.Typ}, 0)
		ids, err := tbl.insert([]*types.Vector{v}, nil, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ids[0] != ids[1] || ids[2] == ids[0] || tbl.Len() != 2 || !tbl.keys[0].IsNull(0) {
			t.Errorf("%v: ids %v over %d keys; want the two NULLs as one key", v.Typ, ids, tbl.Len())
		}
	}
}

// TestHashTableAllocsFlatInKeys is the allocation gate for the shared
// hash table: with the rows fixed, the allocations of a hash join (build
// and probe) and of a grouped aggregation must not grow with the number
// of distinct keys, 1k against 10k within +10%. A per-key allocation (a
// Row or state slice per group, a row slice per join key) would add
// about 9,000. The table's arrays double as they grow, which adds about
// log2(10) reallocations per array; the inputs are scans of a realistic
// size (100 batches of 500 rows) with a computed aggregate argument, as
// in TPC-H, so the per-batch work the operators do is part of the base.
func TestHashTableAllocsFlatInKeys(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	schema := types.Schema{{Name: "k", Type: types.Int64}, {Name: "s", Type: types.Varchar}, {Name: "v", Type: types.Float64}}
	const nb, n = 100, 500
	batches := func(keys int) []*types.Batch {
		var out []*types.Batch
		row := 0
		for bi := 0; bi < nb; bi++ {
			b := types.NewBatch(schema, n)
			for k := 0; k < n; k++ {
				key := (row * 7919) % keys
				b.AppendRow(types.Row{types.NewInt(int64(key)), types.NewString(fmt.Sprint("s", key%97)), types.NewFloat(float64(row))})
				row++
			}
			out = append(out, b)
		}
		return out
	}
	joinAllocs := func(keys int) float64 {
		build, probe := batches(keys), batches(keys)
		return testing.AllocsPerRun(3, func() {
			j := NewHashJoin(NewSource(schema, build[:20]...), NewSource(schema, probe...), []int{0, 1}, []int{0, 1})
			for {
				b, err := j.Next()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					return
				}
			}
		})
	}
	aggAllocs := func(keys int) float64 {
		in := batches(keys)
		kk := mustBind(t, &expr.ColumnRef{Name: "k"}, schema)
		ks := mustBind(t, &expr.ColumnRef{Name: "s"}, schema)
		// v * (1 - v), shaped like SUM(l_extendedprice * (1 - l_discount)).
		arg := mustBind(t, &expr.Binary{Op: expr.OpMul, L: &expr.ColumnRef{Name: "v"},
			R: &expr.Binary{Op: expr.OpSub, L: &expr.Literal{Value: types.NewFloat(1)}, R: &expr.ColumnRef{Name: "v"}}}, schema)
		return testing.AllocsPerRun(3, func() {
			agg := NewHashAggregate(NewSource(schema, in...), []expr.Expr{kk, ks}, []string{"k", "s"},
				[]AggDef{{Kind: AggCountStar, Name: "n"}, {Kind: AggSum, Arg: arg, Name: "sv"}}, false)
			if _, err := agg.Next(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, c := range []struct {
		name string
		f    func(int) float64
	}{{"hash join", joinAllocs}, {"hash aggregate", aggAllocs}} {
		few, many := c.f(1000), c.f(10000)
		t.Logf("%s: %.0f allocs at 1k keys, %.0f at 10k", c.name, few, many)
		if many > 1.10*few {
			t.Errorf("%s: %.0f allocs at 10k keys > 1.10 x %.0f at 1k", c.name, many, few)
		}
	}
}
