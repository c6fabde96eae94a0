package expr

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"eon/internal/types"
)

// The differential property test: random expressions over random
// batches, asserting the vectorized engine is indistinguishable from
// the row engine (EvalBatch / FilterBatch) — including NULL handling,
// empty batches, mixed int/float comparisons, and selection vectors.

var diffSchema = types.Schema{
	{Name: "a", Type: types.Int64},
	{Name: "f", Type: types.Float64},
	{Name: "s", Type: types.Varchar},
	{Name: "o", Type: types.Bool},
	{Name: "d", Type: types.Date},
	{Name: "k", Type: types.Int64},
}

func randDatum(r *rand.Rand, t types.Type, nullProb float64) types.Datum {
	if r.Float64() < nullProb {
		return types.NullDatum(t)
	}
	switch t {
	case types.Int64:
		return types.NewInt(int64(r.Intn(21) - 10))
	case types.Float64:
		return types.NewFloat(float64(r.Intn(41)-20) / 4)
	case types.Varchar:
		words := []string{"", "a", "ab", "STEEL", "small steel box", "Brand#12", "Brand#22", "%odd%"}
		return types.NewString(words[r.Intn(len(words))])
	case types.Bool:
		return types.NewBool(r.Intn(2) == 0)
	case types.Date:
		return types.NewDate(int64(r.Intn(20000)))
	}
	panic("unhandled type")
}

func randBatch(r *rand.Rand, n int, nullProb float64) *types.Batch {
	b := types.NewBatch(diffSchema, n)
	for i := 0; i < n; i++ {
		row := make(types.Row, len(diffSchema))
		for c, col := range diffSchema {
			row[c] = randDatum(r, col.Type, nullProb)
		}
		b.AppendRow(row)
	}
	return b
}

// Expression generators, by result kind. Depth bounds recursion.

func genNum(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(5) {
		case 0:
			return &ColumnRef{Name: "a"}
		case 1:
			return &ColumnRef{Name: "f"}
		case 2:
			return &ColumnRef{Name: "k"}
		case 3:
			return &Literal{Value: randDatum(r, types.Int64, 0.1)}
		default:
			return &Literal{Value: randDatum(r, types.Float64, 0.1)}
		}
	}
	switch r.Intn(6) {
	case 0:
		ops := []Op{OpAdd, OpSub, OpMul, OpDiv, OpMod}
		return &Binary{Op: ops[r.Intn(len(ops))], L: genNum(r, depth-1), R: genNum(r, depth-1)}
	case 1:
		return &Unary{Op: OpNeg, E: genNum(r, depth-1)}
	case 2:
		return &Func{Name: "ABS", Args: []Expr{genNum(r, depth-1)}}
	case 3:
		return &Func{Name: "LENGTH", Args: []Expr{genStr(r, depth-1)}}
	case 4:
		fields := []string{"YEAR", "MONTH", "DAY"}
		return &Func{Name: fields[r.Intn(len(fields))], Args: []Expr{&ColumnRef{Name: "d"}}}
	default:
		return &Case{
			Whens: []When{{Cond: genBool(r, depth-1), Then: genNum(r, depth-1)}},
			Else:  genNum(r, depth-1),
		}
	}
}

func genStr(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(2) == 0 {
		if r.Intn(2) == 0 {
			return &ColumnRef{Name: "s"}
		}
		return &Literal{Value: randDatum(r, types.Varchar, 0.1)}
	}
	switch r.Intn(4) {
	case 0:
		name := []string{"LOWER", "UPPER"}[r.Intn(2)]
		return &Func{Name: name, Args: []Expr{genStr(r, depth-1)}}
	case 1:
		return &Func{Name: "SUBSTR", Args: []Expr{
			genStr(r, depth-1),
			&Literal{Value: types.NewInt(int64(r.Intn(6)))},
			&Literal{Value: types.NewInt(int64(r.Intn(6)))},
		}}
	case 2:
		return &Func{Name: "COALESCE", Args: []Expr{genStr(r, depth-1), genStr(r, depth-1)}}
	default:
		return &Case{
			Whens: []When{{Cond: genBool(r, depth-1), Then: genStr(r, depth-1)}},
			Else:  genStr(r, depth-1),
		}
	}
}

func genBool(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(3) {
		case 0:
			return &ColumnRef{Name: "o"}
		case 1:
			return &Literal{Value: randDatum(r, types.Bool, 0.2)}
		default:
			cmps := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
			return &Binary{Op: cmps[r.Intn(len(cmps))], L: genNum(r, 0), R: genNum(r, 0)}
		}
	}
	switch r.Intn(7) {
	case 0:
		return &Binary{Op: OpAnd, L: genBool(r, depth-1), R: genBool(r, depth-1)}
	case 1:
		return &Binary{Op: OpOr, L: genBool(r, depth-1), R: genBool(r, depth-1)}
	case 2:
		return &Unary{Op: OpNot, E: genBool(r, depth-1)}
	case 3:
		return &IsNull{E: genNum(r, depth-1), Negate: r.Intn(2) == 0}
	case 4:
		var list []Expr
		elemT := []types.Type{types.Int64, types.Float64, types.Varchar}[r.Intn(3)]
		for i := 0; i < 1+r.Intn(4); i++ {
			list = append(list, &Literal{Value: randDatum(r, elemT, 0.15)})
		}
		return &In{E: genNum(r, depth-1), List: list, Negate: r.Intn(2) == 0}
	case 5:
		patterns := []string{"%", "STEEL", "%STEEL%", "Brand#1_", "%a%b%", "small%", "%box", "a_c%"}
		return &Like{E: genStr(r, depth-1), Pattern: patterns[r.Intn(len(patterns))], Negate: r.Intn(2) == 0}
	default:
		cmps := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
		op := cmps[r.Intn(len(cmps))]
		if r.Intn(2) == 0 {
			return &Binary{Op: op, L: genStr(r, depth-1), R: genStr(r, depth-1)}
		}
		return &Binary{Op: op, L: genNum(r, depth-1), R: genNum(r, depth-1)}
	}
}

func datumEq(a, b types.Datum) bool {
	if a.Null != b.Null {
		return false
	}
	if a.Null {
		return true
	}
	if a.K.Physical() != b.K.Physical() {
		return false
	}
	switch a.K.Physical() {
	case types.Int64:
		return a.I == b.I
	case types.Float64:
		return a.F == b.F
	case types.Varchar:
		return a.S == b.S
	case types.Bool:
		return a.B == b.B
	}
	return false
}

func checkVecEqual(t *testing.T, label string, want, got *types.Vector) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: length %d != %d", label, got.Len(), want.Len())
	}
	for j := 0; j < want.Len(); j++ {
		if !datumEq(want.Datum(j), got.Datum(j)) {
			t.Fatalf("%s: row %d: vec=%v row-engine=%v", label, j, got.Datum(j), want.Datum(j))
		}
	}
}

func randSel(r *rand.Rand, n int) []int {
	var sel []int
	for i := 0; i < n; i++ {
		if r.Intn(3) > 0 {
			sel = append(sel, i)
		}
	}
	if sel == nil {
		sel = []int{}
	}
	return sel
}

func TestEvalVecMatchesRowEngine(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	sizes := []int{0, 1, 3, 17, 64}
	nullProbs := []float64{0, 0.25, 1}
	gens := []func(*rand.Rand, int) Expr{genBool, genNum, genStr}
	for iter := 0; iter < 400; iter++ {
		e := gens[iter%len(gens)](r, 3)
		if err := Bind(e, diffSchema); err != nil {
			t.Fatalf("bind %v: %v", e, err)
		}
		n := sizes[r.Intn(len(sizes))]
		b := randBatch(r, n, nullProbs[r.Intn(len(nullProbs))])
		label := fmt.Sprintf("iter %d expr %v rows %d", iter, e, n)

		want, errW := EvalBatch(e, b)
		var st VecStats
		got, errG := EvalVec(e, b, nil, &st)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("%s: error mismatch row=%v vec=%v", label, errW, errG)
		}
		if errW == nil {
			checkVecEqual(t, label, want, got)
		}

		// The same expression through a selection vector must agree with
		// the row engine over the gathered rows.
		sel := randSel(r, n)
		wantSel, errW := EvalBatch(e, b.Gather(sel))
		gotSel, errG := EvalVec(e, b, sel, &st)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("%s (sel): error mismatch row=%v vec=%v", label, errW, errG)
		}
		if errW == nil {
			checkVecEqual(t, label+" (sel)", wantSel, gotSel)
		}
	}
}

func TestFilterVecMatchesFilterBatch(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	sizes := []int{0, 1, 5, 33, 128}
	nullProbs := []float64{0, 0.25, 1}
	for iter := 0; iter < 400; iter++ {
		e := genBool(r, 3)
		if err := Bind(e, diffSchema); err != nil {
			t.Fatalf("bind %v: %v", e, err)
		}
		n := sizes[r.Intn(len(sizes))]
		b := randBatch(r, n, nullProbs[r.Intn(len(nullProbs))])
		label := fmt.Sprintf("iter %d expr %v rows %d", iter, e, n)

		want, errW := FilterBatch(e, b)
		var st VecStats
		got, errG := FilterVec(e, b, nil, &st)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("%s: error mismatch row=%v vec=%v", label, errW, errG)
		}
		if errW != nil {
			continue
		}
		if len(want) != len(got) {
			t.Fatalf("%s: selected %d rows, row engine selected %d (%v vs %v)", label, len(got), len(want), got, want)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s: selection differs at %d: %v vs %v", label, i, got, want)
			}
		}

		// Narrowing an existing selection must match filtering the
		// gathered batch and mapping positions back.
		sel := randSel(r, n)
		sub, errW := FilterBatch(e, b.Gather(sel))
		got2, errG := FilterVec(e, b, sel, &st)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("%s (sel): error mismatch row=%v vec=%v", label, errW, errG)
		}
		if errW != nil {
			continue
		}
		want2 := make([]int, len(sub))
		for i, j := range sub {
			want2[i] = sel[j]
		}
		if len(want2) != len(got2) {
			t.Fatalf("%s (sel): selected %d rows, want %d", label, len(got2), len(want2))
		}
		for i := range want2 {
			if want2[i] != got2[i] {
				t.Fatalf("%s (sel): selection differs at %d: %v vs %v", label, i, got2, want2)
			}
		}
	}
}

// TestEvalVecConcurrent exercises a single bound expression from many
// goroutines, the sharing pattern the per-node executor uses. Run with
// -race this proves the bound tree is read-only during evaluation.
func TestEvalVecConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	e := &Binary{Op: OpAnd,
		L: &Like{E: &ColumnRef{Name: "s"}, Pattern: "%STEEL%"},
		R: &Binary{Op: OpOr,
			L: &In{E: &ColumnRef{Name: "a"}, List: []Expr{
				&Literal{Value: types.NewInt(1)}, &Literal{Value: types.NewInt(2)},
			}},
			R: &Binary{Op: OpGt, L: &ColumnRef{Name: "f"}, R: &Literal{Value: types.NewFloat(0)}},
		},
	}
	if err := Bind(e, diffSchema); err != nil {
		t.Fatal(err)
	}
	b := randBatch(r, 256, 0.2)
	want, err := FilterBatch(e, b)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var st VecStats
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, err := FilterVec(e, b, nil, &st)
				if err != nil || len(got) != len(want) {
					t.Errorf("concurrent FilterVec diverged: %v (%d vs %d rows)", err, len(got), len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
	if st.Fallback.Load() != 0 {
		t.Errorf("expected zero fallback rows, got %d", st.Fallback.Load())
	}
}
