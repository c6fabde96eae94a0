package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"eon"
	"eon/internal/experiments"
	"eon/internal/objstore"
)

// Cluster shape of the Figure 10 experiment (experiments.NewEonCluster).
const (
	clusterNodes  = 4
	clusterShards = 4
	replication   = 2
	execSlots     = 8
)

// env is one cluster under test: the Eon cluster, its shared-storage
// simulator and the timing decorator between them.
type env struct {
	db    *eon.DB
	mem   *objstore.Mem
	sim   *objstore.Sim
	store *timedStore
	probe *probe
	cfg   eon.Config
}

// newEnv builds the Figure 10 cluster with the timing decorator wrapped
// around the simulator. cacheBytes and resultCacheBytes are the only
// settings a workload changes (0 keeps the default).
func newEnv(cacheBytes, resultCacheBytes int64, hotProj string) (*env, error) {
	mem := objstore.NewMem()
	sim := objstore.NewSim(mem, experiments.SharedStorageSim(1))
	store := newTimedStore(sim)
	nodes := make([]eon.NodeSpec, clusterNodes)
	for i := range nodes {
		nodes[i] = eon.NodeSpec{Name: fmt.Sprintf("node%d", i+1)}
	}
	cfg := eon.Config{
		Mode:              eon.ModeEon,
		Nodes:             nodes,
		ShardCount:        clusterShards,
		ReplicationFactor: replication,
		Shared:            store,
		Net:               experiments.ClusterNet(),
		ExecSlots:         execSlots,
		CacheBytes:        cacheBytes,
		ResultCacheBytes:  resultCacheBytes,
	}
	db, err := eon.Create(cfg)
	if err != nil {
		return nil, fmt.Errorf("create cluster: %w", err)
	}
	e := &env{db: db, mem: mem, sim: sim, store: store, cfg: cfg}
	e.probe = &probe{db: db, sim: sim, store: store, hotProj: hotProj}
	return e, nil
}

// sharedBytes sums the sizes of every object in shared storage, read
// from the simulator's backend so the request bill is not charged.
func (e *env) sharedBytes() (int64, error) {
	infos, err := e.mem.List(context.Background(), "")
	if err != nil {
		return 0, fmt.Errorf("list shared storage: %w", err)
	}
	var n int64
	for _, in := range infos {
		n += in.Size
	}
	return n, nil
}

// execAll runs DDL statements in order.
func execAll(db *eon.DB, stmts []string) error {
	for _, s := range stmts {
		if _, err := db.Execute(s); err != nil {
			return fmt.Errorf("%.40s: %w", s, err)
		}
	}
	return nil
}

// loadTables loads generated tables in name order.
func loadTables(db *eon.DB, tables map[string]*eon.Batch) error {
	for _, name := range sortedKeys(tables) {
		if err := db.LoadRows(name, tables[name]); err != nil {
			return fmt.Errorf("load %s: %w", name, err)
		}
	}
	return nil
}

// opLog collects the outcome of every timed op of a phase. It is
// sized up front, so while a phase stays within opLogCap ops its
// footprint in the measured heap is fixed and does not grow with
// throughput: 16 bytes per op.
type opLog struct {
	mu       sync.Mutex
	lat      map[spanKind][]float64       // ms; infLatency for a failed or wrong op
	ends     map[spanKind][]time.Duration // completion, as an offset from epoch
	attempts int64
	failed   int64
	errs     []string
}

// opLogCap is the number of query outcomes a phase's log holds without
// growing: twice what a 15 s window of the fastest workload
// (dashboard-hot, about 4,000 queries/s) completes, so a faster program
// does not pay for a bigger log in heap_peak_mb. Loads are far fewer;
// the log holds opLogCap/16 of them.
const opLogCap = 1 << 17

// epoch is the origin of the op logs' completion offsets.
var epoch = time.Now()

func newOpLog(capacity int) *opLog {
	l := &opLog{lat: map[spanKind][]float64{}, ends: map[spanKind][]time.Duration{}}
	for k, n := range map[spanKind]int{kindQuery: capacity, kindLoad: capacity / 16} {
		l.lat[k] = make([]float64, 0, n)
		l.ends[k] = make([]time.Duration, 0, n)
	}
	return l
}

// infLatency is the latency recorded for a failed op: it misses every
// latency limit.
const infLatency = 1e300

func (l *opLog) add(kind spanKind, end time.Time, d time.Duration, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempts++
	ms := float64(d) / float64(time.Millisecond)
	if err != nil {
		l.failed++
		ms = infLatency
		if len(l.errs) < 5 {
			l.errs = append(l.errs, fmt.Sprintf("%s: %v", kind, err))
		}
	}
	l.lat[kind] = append(l.lat[kind], ms)
	l.ends[kind] = append(l.ends[kind], end.Sub(epoch))
}

// runner carries what a workload's clients share during a phase.
type runner struct {
	env  *env
	log  *opLog
	rec  atomic.Pointer[recorder]
	stop atomic.Bool
	// checks counts the correctness checks made.
	checks atomic.Int64
	lc     layerCounts
	lcMu   sync.Mutex

	// spaceAmp is set by trickle-ingest's finish.
	spaceAmp float64

	// cycleEnds are the ends of trickle-ingest's load cycles, its slots,
	// and cycleCPU the process CPU time at each.
	cycleMu   sync.Mutex
	cycleEnds []time.Time
	cycleCPU  []time.Duration
}

// endCycle marks the end of a workload cycle.
func (r *runner) endCycle() {
	r.cycleMu.Lock()
	r.cycleEnds = append(r.cycleEnds, time.Now())
	r.cycleCPU = append(r.cycleCPU, processCPU())
	r.cycleMu.Unlock()
}

// call times one call into the program as an op of kind on lane. check,
// when non-nil, validates the call's outcome after the clock stops; a
// wrong result counts as a failed op.
func (r *runner) call(lane int, kind spanKind, fn func() error, check func() error) error {
	rec := r.rec.Load()
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if err == nil && check != nil {
		r.checks.Add(1)
		err = check()
	}
	rec.op(kind, lane, start, d)
	r.log.add(kind, start.Add(d), d, err)
	return err
}

// counts updates the phase's layer counts under the lock.
func (r *runner) counts(fn func(lc *layerCounts)) {
	r.lcMu.Lock()
	fn(&r.lc)
	r.lcMu.Unlock()
}

// closedLoop runs each client until stop is set; every client waits for
// its reply before sending the next request. It returns when all have
// returned.
func (r *runner) closedLoop(clients []func(lane int)) {
	var wg sync.WaitGroup
	for lane, c := range clients {
		wg.Add(1)
		go func(lane int, c func(int)) {
			defer wg.Done()
			for !r.stop.Load() {
				c(lane)
			}
		}(lane, c)
	}
	wg.Wait()
}
