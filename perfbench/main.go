// Command perfbench is the repository's benchmark of record: it runs one
// of four named workloads against an in-process 4-node Eon cluster,
// checks every result against an independent 1-node Enterprise cluster,
// and prints end-to-end metrics (untraced) or per-layer metrics (traced)
// as one JSON object on the last line of standard output.
//
//	perfbench --workload tpch-warm --seed 1 --seconds 10 --trace 0
//	perfbench --workload all --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"eon/internal/objstore"
	"eon/internal/sql"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale is the TPC-H scale factor: 1 (about 40k lineitems) for the
	// benchmark, tiny for the smoke test.
	scale float64
	// setupReps is the number of set-ups whose median is setup_s.
	setupReps int
	// outDir receives the trace files.
	outDir string
}

func main() {
	o := options{scale: 1, setupReps: 7, outDir: ".bench_out"}
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: reaches only the data and parameter generators")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and prints per-layer metrics")
	flag.Parse()
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("--trace must be 0 or 1")
	}

	var defs []workloadDef
	for _, w := range workloads {
		if o.workload == w.name || o.workload == "all" {
			defs = append(defs, w)
		}
	}
	if len(defs) == 0 {
		fatalf("unknown --workload %q", o.workload)
	}
	ok := true
	for _, w := range defs {
		res, err := run(w, o)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		if len(defs) > 1 {
			printTable(w.name, res)
		}
		line, err := json.Marshal(res.result)
		if err != nil {
			fatalf("%s: encode result: %v", w.name, err)
		}
		fmt.Println(string(line))
		ok = ok && res.result.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// metric is one printed value. A value that is not finite (a latency
// percentile that landed on a failed op) prints as null.
type metric struct {
	Value jsonFloat `json:"value"`
	Unit  string    `json:"unit"`
}

type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, 0) || math.IsNaN(v) || v >= infLatency {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is printed on the line before the result: every figure the run
// measured, with the provenance needed to compare runs.
type report struct {
	Workload   string             `json:"workload"`
	Why        string             `json:"why"`
	Seed       int64              `json:"seed"`
	Commit     string             `json:"commit"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"nproc"`
	Scale      float64            `json:"scale"`
	Seconds    float64            `json:"seconds"`
	Traced     bool               `json:"traced"`
	Dataset    int64              `json:"dataset_bytes"`
	DepotBytes int64              `json:"depot_bytes_per_node"`
	DepotShare float64            `json:"depot_share_of_node_working_set"`
	SetupS     []float64          `json:"setup_s_samples"`
	SetupCPUS  []float64          `json:"setup_cpu_s_samples"`
	QueryTail  tail               `json:"query_tail"`
	LoadTail   tail               `json:"load_tail"`
	Ops        map[string]int64   `json:"ops"`
	Errors     []string           `json:"errors,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	// OperatorSelfS is the program's own per-operator self time in the
	// traced phases (exec.self_s.<operator>).
	OperatorSelfS map[string]float64 `json:"operator_self_s,omitempty"`
	TraceFile     string             `json:"trace_file,omitempty"`
	// Slots is the number of slots the headline figures are medians
	// over; Checks counts the correctness checks made.
	Slots  int   `json:"slots"`
	Checks int64 `json:"checks"`
}

type runResult struct {
	report report
	result result
}

// phase is one stretch of the measured window.
type phase struct {
	traced  bool
	log     *opLog
	start   time.Time
	elapsed time.Duration
}

// slotWidth is the length of the slots an untraced run's headline
// figures are taken over.
const slotWidth = time.Second

// cycleSlots caps the slots of a workload whose slots are load cycles:
// only the first cycles count, so every run's figures cover the same
// amount of loaded data however fast the host let it load.
const cycleSlots = 5

func run(w workloadDef, o options) (runResult, error) {
	inst, err := w.prepare(o)
	if err != nil {
		return runResult{}, fmt.Errorf("prepare: %w", err)
	}
	e, setups, setupCPU, err := setUp(inst, o.setupReps)
	if err != nil {
		return runResult{}, err
	}
	dataset, err := e.sharedBytes()
	if err != nil {
		return runResult{}, err
	}

	r := &runner{env: e}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	phases, s0, s1 := measure(r, inst.clients(r), o.seconds, rec)
	finishErr := inst.finish(r)

	all := pool(phases)
	if finishErr != nil {
		all.attempts++
		all.failed++
		all.errs = append(all.errs, "final check: "+finishErr.Error())
	}
	m, sl := figures(r, phases, all, s0, s1, o.trace)
	m["setup_s"] = median(setups)
	m["sql.normalize_us"], m["sql.parse_us"] = timeFrontEnd(inst.statements)

	rep := report{
		Workload: w.name, Why: w.why, Seed: o.seed, Commit: commit(),
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Scale: o.scale, Seconds: o.seconds, Traced: o.trace,
		Dataset: dataset, DepotBytes: e.cfg.CacheBytes, SetupS: setups, SetupCPUS: setupCPU,
		QueryTail: tailOf(sl.within(all.lat[kindQuery], all.ends[kindQuery])),
		LoadTail:  tailOf(all.lat[kindLoad]),
		Errors:    all.errs, Metrics: m, Slots: sl.n, Checks: r.checks.Load(),
		Ops: map[string]int64{"attempted": all.attempts, "failed": all.failed},
	}
	if rep.DepotBytes == 0 {
		rep.DepotBytes = 256 << 20 // the Config default
	}
	if dataset > 0 {
		rep.DepotShare = float64(rep.DepotBytes) / (float64(dataset) * replication / clusterNodes)
	}
	for k, v := range all.lat {
		rep.Ops[string(k)] = int64(len(v))
	}

	if rec != nil {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return runResult{}, fmt.Errorf("trace dir: %w", err)
		}
		rep.TraceFile = filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, o.seed))
		ts, err := rec.finish(rep.TraceFile)
		if err != nil {
			return runResult{}, err
		}
		for _, k := range []spanKind{kindQuery, kindLoad, kindTupleMover, kindSync, kindGC, kindGet, kindPut, kindList, kindDelete} {
			m["self_s."+string(k)] = ts.SelfS[string(k)]
		}
		m["trace.spans"] = float64(ts.Spans)
		m["trace.unattributed"] = float64(ts.Unattributed)
		m["trace.ambiguous"] = float64(ts.Ambiguous)
		m["trace.overhead_qps_pct"], m["trace.overhead_p50_pct"] = overhead(phases)
		rep.OperatorSelfS = ts.OperatorSelfS
	}

	res := result{
		Correct:   all.failed == 0,
		Attempted: all.attempts,
		Failed:    all.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	}
	set := endToEnd
	if o.trace {
		set = perLayer
	}
	for _, d := range set {
		res.Metrics[d.name] = metric{jsonFloat(m[d.name]), d.unit}
	}
	line, err := json.Marshal(map[string]report{"report": rep})
	if err != nil {
		return runResult{}, fmt.Errorf("encode report: %w", err)
	}
	fmt.Println(string(line))
	for _, msg := range all.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.name, msg)
	}
	return runResult{report: rep, result: res}, nil
}

// setUp builds the cluster reps times and keeps the last one. The wall
// times are the setup_s samples; the process CPU time of each set-up is
// returned beside them, so a report shows whether a slower set-up did
// more work or got less of the host.
func setUp(inst *instance, reps int) (e *env, wall, cpu []float64, err error) {
	for i := 0; i < max(1, reps); i++ {
		e = nil // let the previous cluster go before the next set-up
		runtime.GC()
		start, cpu0 := time.Now(), processCPU()
		if e, err = inst.setup(); err != nil {
			return nil, nil, nil, fmt.Errorf("setup: %w", err)
		}
		wall = append(wall, time.Since(start).Seconds())
		cpu = append(cpu, (processCPU() - cpu0).Seconds())
	}
	return e, wall, cpu, nil
}

// measure runs the clients for the measured window and snapshots every
// layer before and after it. With a recorder the window alternates
// untraced and traced quarters, so the tracing overhead is measured
// against the same cluster state.
func measure(r *runner, clients []func(int), seconds float64, rec *recorder) ([]phase, sample, sample) {
	plan := []bool{false}
	if rec != nil {
		plan = []bool{false, true, false, true}
	}
	runtime.GC()
	p := r.env.probe
	p.layers = rec != nil
	r.env.store.keepLats.Store(rec != nil)
	p.resetPeaks()
	stop := make(chan struct{})
	done := make(chan struct{})
	s0 := p.snapshot()
	go func() {
		defer close(done)
		p.sampler(stop, 20*time.Millisecond)
	}()
	var phases []phase
	dur := time.Duration(seconds * float64(time.Second) / float64(len(plan)))
	for _, traced := range plan {
		ph := phase{traced: traced, log: newOpLog(opLogCap / len(plan))}
		r.log = ph.log
		if traced {
			r.rec.Store(rec)
			r.env.store.rec.Store(rec)
		}
		r.stop.Store(false)
		ph.start = time.Now()
		timer := time.AfterFunc(dur, func() { r.stop.Store(true) })
		r.closedLoop(clients)
		timer.Stop()
		ph.elapsed = time.Since(ph.start)
		r.rec.Store(nil)
		r.env.store.rec.Store(nil)
		phases = append(phases, ph)
	}
	close(stop)
	<-done
	return phases, s0, p.snapshot()
}

// pool merges the phases' op logs.
func pool(phases []phase) *opLog {
	all := newOpLog(0)
	for _, ph := range phases {
		all.attempts += ph.log.attempts
		all.failed += ph.log.failed
		all.errs = append(all.errs, ph.log.errs...)
		for k, v := range ph.log.lat {
			all.lat[k] = append(all.lat[k], v...)
			all.ends[k] = append(all.ends[k], ph.log.ends[k]...)
		}
	}
	return all
}

// completed counts the ops that did not fail.
func completed(lat []float64) int64 {
	var n int64
	for _, x := range lat {
		if x < infLatency {
			n++
		}
	}
	return n
}

// figures computes every metric but set-up time and the front-end
// timings. An untraced run is one phase, and its throughput, median
// latency, tail and peak heap are taken over slots: one-second slots, or
// the load cycles of a workload that has them. A traced run pools its
// phases instead.
func figures(r *runner, phases []phase, all *opLog, s0, s1 sample, traced bool) (map[string]float64, slots) {
	queries, qEnds := all.lat[kindQuery], all.ends[kindQuery]
	loads := all.lat[kindLoad]
	userOps := completed(queries) + completed(loads)
	r.lcMu.Lock()
	lc := r.lc
	r.lcMu.Unlock()
	lc.ops = userOps

	m := r.env.probe.delta(s0, s1, lc)
	var secs float64
	for _, ph := range phases {
		secs += ph.elapsed.Seconds()
	}
	var sl slots
	// CPU time and the ops it is divided by cover the whole window, or
	// only the load cycles the slots cover, so that every run's figure
	// is for the same amount of work.
	cpu, cpuOps := s1.cpu-s0.cpu, userOps
	if traced {
		sl = newSlots([]time.Time{phases[0].start, phases[len(phases)-1].start.Add(phases[len(phases)-1].elapsed)})
		// Throughput and median latency come from the untraced quarters
		// only; overhead compares them with the traced ones.
		m["queries_per_s"], m["query_p50_ms"] = queryFigures(phases, false)
		m["heap_peak_mb"] = m["runtime.heap_peak_mb"]
	} else {
		sl = fixedSlots(phases[0].start, phases[0].elapsed, slotWidth)
		if n := min(len(r.cycleEnds), cycleSlots); n > 0 {
			sl = newSlots(append([]time.Time{phases[0].start}, r.cycleEnds[:n]...))
			cpu = r.cycleCPU[n-1] - s0.cpu
			cpuOps = completed(sl.within(queries, qEnds)) + completed(sl.within(loads, all.ends[kindLoad]))
		}
		m["queries_per_s"], m["query_p50_ms"] = sl.rateAndMedian(queries, qEnds)
		m["heap_peak_mb"] = median(r.env.probe.heapPeaks(sl))
	}
	m["query_p99_ms"] = tailOf(sl.within(queries, qEnds)).Value
	m["load_p50_ms"] = median(loads)
	m["load_p99_ms"] = tailOf(loads).Value
	m["rows_loaded_per_s"] = float64(lc.rowsLoaded) / secs
	m["space_amp"] = r.spaceAmp
	m["error_rate"] = float64(all.failed) / float64(max(1, all.attempts))
	m["s3_cost_nusd_per_op"], m["cpu_ms_per_op"] = 0, 0
	if userOps > 0 {
		costs := objstore.DefaultCosts()
		bill := (s1.sim.RequestCostUSD(costs) - s0.sim.RequestCostUSD(costs)) * 1e9
		m["s3_cost_nusd_per_op"] = bill / float64(userOps)
	}
	if cpuOps > 0 {
		m["cpu_ms_per_op"] = float64(cpu) / float64(time.Millisecond) / float64(cpuOps)
	}
	return m, sl
}

// queryFigures returns the completed queries per second and the median
// query latency over the traced or the untraced phases.
func queryFigures(phases []phase, traced bool) (qps, p50 float64) {
	var lat []float64
	var secs float64
	for _, ph := range phases {
		if ph.traced == traced {
			lat = append(lat, ph.log.lat[kindQuery]...)
			secs += ph.elapsed.Seconds()
		}
	}
	if secs == 0 {
		return 0, 0
	}
	return float64(completed(lat)) / secs, median(lat)
}

// overhead compares the traced phases with the untraced ones: the share
// by which tracing lowered query throughput and raised median latency.
func overhead(phases []phase) (qpsPct, p50Pct float64) {
	qps0, p0 := queryFigures(phases, false)
	qps1, p1 := queryFigures(phases, true)
	if qps0 == 0 || p0 == 0 || qps1 == 0 {
		return 0, 0
	}
	return (qps0 - qps1) / qps0 * 100, (p1 - p0) / p0 * 100
}

// timeFrontEnd times sql.Normalize and sql.Parse on each workload
// statement and returns the mean over statements of each one's median
// per-call time, in microseconds.
func timeFrontEnd(stmts []string) (normUS, parseUS float64) {
	if len(stmts) == 0 {
		return 0, 0
	}
	const reps = 101
	per := func(fn func(string)) float64 {
		var sum float64
		for _, s := range stmts {
			xs := make([]float64, reps)
			for i := range xs {
				start := time.Now()
				fn(s)
				xs[i] = float64(time.Since(start)) / float64(time.Microsecond)
			}
			sum += median(xs)
		}
		return sum / float64(len(stmts))
	}
	normUS = per(func(s string) { _ = sql.Normalize(s) })
	parseUS = per(func(s string) { _, _ = sql.Parse(s) })
	return normUS, parseUS
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// printTable writes a run's end-to-end figures by name with their units
// to standard error.
func printTable(name string, res runResult) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (seed %d, correct=%v, %d/%d ops failed)\n", name, res.report.Seed, res.result.Correct, res.result.Failed, res.result.Attempted)
	for _, d := range endToEnd {
		fmt.Fprintf(&sb, "  %-22s %14.4f %s\n", d.name, res.report.Metrics[d.name], d.unit)
	}
	for _, d := range workloadFigures {
		fmt.Fprintf(&sb, "  %-22s %14.4f %s\n", d.name, res.report.Metrics[d.name], d.unit)
	}
	fmt.Fprint(os.Stderr, sb.String())
}
