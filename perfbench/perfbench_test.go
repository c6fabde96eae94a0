package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"eon/internal/objstore"
	"eon/internal/types"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		wantPct float64
	}{
		{1000, 99}, // exactly 10 beyond p99
		{999, 98},  // 9 beyond p99, 19 beyond p98
		{200, 95},
		{100, 90},
		{40, 75},
		{20, 50},
		{10, 0}, // nothing qualifies
	} {
		got := tailOf(seq(tc.n))
		if got.Pct != tc.wantPct || got.N != tc.n {
			t.Errorf("n=%d: got pct %v n %d, want pct %v", tc.n, got.Pct, got.N, tc.wantPct)
			continue
		}
		if got.Pct > 0 {
			beyond, v := percentile(seq(tc.n), got.Pct)
			if beyond < tailMin || v != got.Value {
				t.Errorf("n=%d: %v beyond, value %v vs %v", tc.n, beyond, v, got.Value)
			}
		}
	}
	// A failed op counts against the tail.
	xs := seq(1000)
	for i := 0; i < 11; i++ {
		xs[i] = infLatency
	}
	if got := tailOf(xs); got.Value != infLatency {
		t.Errorf("p99 with 11 failed ops of 1000 = %v, want the failure latency", got.Value)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

// faultyStore returns fixed bytes or a fixed error.
type faultyStore struct {
	data []byte
	err  error
}

func (f faultyStore) Put(context.Context, string, []byte) error   { return f.err }
func (f faultyStore) Get(context.Context, string) ([]byte, error) { return f.data, f.err }
func (f faultyStore) Delete(context.Context, string) error        { return f.err }
func (f faultyStore) GetRange(_ context.Context, _ string, off, n int64) ([]byte, error) {
	return f.data[off : off+n], f.err
}
func (f faultyStore) List(context.Context, string) ([]objstore.Info, error) {
	return []objstore.Info{{Key: "k", Size: int64(len(f.data))}}, f.err
}

func TestTimedStorePassesThrough(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("boom")
	for _, inner := range []faultyStore{{data: []byte("payload")}, {data: []byte("payload"), err: boom}} {
		s := newTimedStore(inner)
		got, err := s.Get(ctx, "k")
		if string(got) != "payload" || err != inner.err {
			t.Errorf("Get = %q, %v; want %q, %v", got, err, "payload", inner.err)
		}
		got, err = s.GetRange(ctx, "k", 1, 3)
		if string(got) != "ayl" || err != inner.err {
			t.Errorf("GetRange = %q, %v", got, err)
		}
		infos, err := s.List(ctx, "")
		if len(infos) != 1 || infos[0].Size != 7 || err != inner.err {
			t.Errorf("List = %v, %v", infos, err)
		}
		if err := s.Put(ctx, "k", []byte("x")); err != inner.err {
			t.Errorf("Put error = %v", err)
		}
		if err := s.Delete(ctx, "k"); err != inner.err {
			t.Errorf("Delete error = %v", err)
		}
		sn := s.snap()
		wantErrs := int64(0)
		if inner.err != nil {
			wantErrs = 5
		}
		if sn.gets != 2 || sn.puts != 1 || sn.lists != 1 || sn.deletes != 1 || sn.errs != wantErrs {
			t.Errorf("counts = %+v", sn)
		}
	}

	// Over the simulator: one request per call, typed errors intact, and
	// the simulator's latency is the only latency.
	const lat = 20 * time.Millisecond
	sim := objstore.NewSim(objstore.NewMem(), objstore.SimConfig{GetLatency: lat})
	s := newTimedStore(sim)
	if err := s.Put(ctx, "a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, err := s.Get(ctx, "a")
	took := time.Since(start)
	if err != nil || string(got) != "hello" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if took < lat || took > lat+15*time.Millisecond {
		t.Errorf("Get took %v, simulator latency is %v", took, lat)
	}
	if _, err := s.Get(ctx, "missing"); !errors.Is(err, objstore.ErrNotFound) {
		t.Errorf("missing key error = %v, want ErrNotFound", err)
	}
	if st := sim.Stats(); st.Gets != 2 || st.Puts != 1 {
		t.Errorf("simulator saw %+v, want 2 GETs and 1 PUT", st)
	}
}

func TestSameRows(t *testing.T) {
	row := func(s string, f float64) types.Row {
		return types.Row{types.NewString(s), types.NewFloat(f)}
	}
	want := []types.Row{row("a", 33672960.55), row("b", 1)}
	// Float sums that straddle a 9-digit rounding boundary still match.
	if ok, diff := sameRows([]types.Row{row("a", 33672960.549999), row("b", 1)}, want); !ok {
		t.Errorf("boundary values reported different: %s", diff)
	}
	for _, got := range [][]types.Row{
		{row("a", 33672960.55), row("b", 1.001)},
		{row("a", 33672960.55), row("c", 1)},
		{row("a", 33672960.55)},
	} {
		if ok, _ := sameRows(got, want); ok {
			t.Errorf("%v reported equal to %v", got, want)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not found: %v", err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q vs %q", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: %d declared, program prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if b.EndToEnd[i].Name != d.name || b.EndToEnd[i].Unit != d.unit {
			t.Errorf("end_to_end %d: %+v vs %+v", i, b.EndToEnd[i], d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer: %d declared, program prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if b.PerLayer[i].Name != d.name || b.PerLayer[i].Unit != d.unit {
			t.Errorf("per_layer %d: %+v vs %+v", i, b.PerLayer[i], d)
		}
	}
}

// TestSmokeAllWorkloads runs every workload for a moment at a tiny size,
// untraced and traced, on two seeds: every declared metric is printed
// with its unit and a finite value, and the correctness checks ran and
// passed.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, seed := range []int64{1, 2} {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				o := options{workload: w.name, seed: seed, seconds: 1.2, trace: traced,
					scale: 0.05, setupReps: 1, outDir: t.TempDir()}
				res, err := run(w, o)
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", w.name, seed, traced, err)
				}
				if !res.result.Correct || res.result.Failed != 0 || res.result.Attempted == 0 {
					t.Errorf("%s seed %d trace %v: correct=%v %d/%d failed: %v", w.name, seed, traced,
						res.result.Correct, res.result.Failed, res.result.Attempted, res.report.Errors)
				}
				if res.report.Checks == 0 {
					t.Errorf("%s seed %d: no correctness check ran", w.name, seed)
				}
				if ops := res.report.Ops; w.name == "trickle-ingest" &&
					ops["query"] > ops["load"]*trickleReadsPerLoad+ops["tuplemover"]*trickleReadsPerPass {
					t.Errorf("trickle reader ran %d queries beside %d loads and %d passes, more than its pace allows",
						ops["query"], ops["load"], ops["tuplemover"])
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.result.Metrics) != len(want) {
					t.Errorf("%s: printed %d metrics, want %d", w.name, len(res.result.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.result.Metrics[d.name]
					v := float64(m.Value)
					if !ok || m.Unit != d.unit || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s: metric %s = %+v, want unit %s and a finite value", w.name, d.name, m, d.unit)
					}
				}
				if !traced {
					for _, d := range endToEnd {
						if res.result.Metrics[d.name].Value <= 0 {
							t.Errorf("%s: end-to-end %s is %v, want > 0", w.name, d.name, res.result.Metrics[d.name].Value)
						}
					}
				}
			}
		}
	}
}
