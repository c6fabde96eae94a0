package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"eon"
	"eon/internal/types"
)

// newReference builds the independent 1-node Enterprise cluster that
// correctness is checked against. It shares nothing with the cluster
// under test but the generated batches.
func newReference() (*eon.DB, error) {
	return eon.Create(eon.Config{
		Mode:  eon.ModeEnterprise,
		Nodes: []eon.NodeSpec{{Name: "ref"}},
	})
}

// floatTol is the relative tolerance for float columns: 9 significant
// digits, as the repository's cross-mode differential test uses.
// Distributed aggregation sums in a different order per cluster shape,
// so the last bits of float sums legitimately differ. Comparing with a
// tolerance rather than rounding both sides to 9 digits keeps values
// that straddle a rounding boundary (33672960.55 against
// 33672960.549999) from reading as a mismatch.
const floatTol = 1e-9

// canonical returns a result's rows in a fixed order, so results can be
// compared order-insensitively.
func canonical(res *eon.Result) []types.Row {
	rows := res.Rows()
	sort.SliceStable(rows, func(i, j int) bool { return compareRows(rows[i], rows[j]) < 0 })
	return rows
}

func compareRows(a, b types.Row) int {
	for i := range a {
		if c := compareDatum(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

func compareDatum(a, b types.Datum) int {
	if a.Null || b.Null {
		switch {
		case a.Null && b.Null:
			return 0
		case a.Null:
			return -1
		default:
			return 1
		}
	}
	if a.K.Physical() == types.Float64 && b.K.Physical() == types.Float64 {
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		}
		return 0
	}
	return strings.Compare(a.String(), b.String())
}

// sameRows reports whether two canonical row sets match: equal values,
// floats within floatTol. It returns a description of the first
// difference.
func sameRows(got, want []types.Row) (bool, string) {
	if len(got) != len(want) {
		return false, fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false, fmt.Sprintf("row %d has %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if !sameDatum(got[i][j], want[i][j]) {
				return false, fmt.Sprintf("row %d: got %v, want %v", i, got[i], want[i])
			}
		}
	}
	return true, ""
}

func sameDatum(a, b types.Datum) bool {
	if a.Null || b.Null {
		return a.Null == b.Null
	}
	if a.K.Physical() == types.Float64 && b.K.Physical() == types.Float64 {
		diff := math.Abs(a.F - b.F)
		return diff <= floatTol*math.Max(math.Abs(a.F), math.Abs(b.F)) || diff <= floatTol
	}
	return a.String() == b.String()
}

// checkRows compares a result with the reference rows.
func checkRows(what string, res *eon.Result, want []types.Row) error {
	if ok, diff := sameRows(canonical(res), want); !ok {
		return fmt.Errorf("%s differs from the reference: %s", what, diff)
	}
	return nil
}
