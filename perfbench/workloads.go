package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"eon"
	"eon/internal/types"
	"eon/internal/workload"
)

// instance is one workload prepared from a seed: its inputs, generated
// once, and the reference answers they must produce.
type instance struct {
	// setup builds, loads and warms a fresh cluster under test. It is the
	// timed set-up and runs several times per invocation.
	setup func() (*env, error)
	// clients returns the closed-loop clients of the timed phase, one per
	// lane.
	clients func(r *runner) []func(lane int)
	// finish runs untimed checks once the timed phase is over.
	finish func(r *runner) error
	// statements are the SQL texts the clients send; the front end is
	// timed on them.
	statements []string
}

type workloadDef struct {
	name string
	why  string
	// prepare generates the inputs from the seed and computes reference
	// answers on an independent 1-node Enterprise cluster (untimed).
	prepare func(o options) (*instance, error)
}

var workloads = []workloadDef{
	{"tpch-warm", "TPC-H from a depot that holds the working set: decode, kernels and netsim do the work", prepareTPCH(false)},
	{"tpch-cold", "TPC-H with a depot a quarter of the working set: shared-storage GETs and depot churn dominate", prepareTPCH(true)},
	{"trickle-ingest", "small loads with tuple mover and sync beside a reader paced to the loads: write path and a growing catalog", prepareTrickle},
	{"dashboard-hot", "Zipf-parameterized join-aggregate through QueryArgs: normalize, plan cache, result cache", prepareDashboard},
}

// tpchClients is the number of closed-loop query clients (nproc here).
const tpchClients = 2

// tpchInputs generates the TPC-H tables for the seed and the reference
// answer of each query.
func tpchInputs(o options) (map[string]*eon.Batch, workload.TPCH, map[string][]types.Row, error) {
	w := workload.DefaultTPCH(o.scale)
	w.Seed = o.seed
	tables := w.Tables()
	ref, err := newReference()
	if err != nil {
		return nil, w, nil, err
	}
	if err := execAll(ref, w.DDL()); err != nil {
		return nil, w, nil, fmt.Errorf("reference: %w", err)
	}
	if err := loadTables(ref, tables); err != nil {
		return nil, w, nil, fmt.Errorf("reference: %w", err)
	}
	want := map[string][]types.Row{}
	s := ref.NewSession()
	for _, q := range workload.TPCHQueries() {
		res, err := s.Query(q.SQL)
		if err != nil {
			return nil, w, nil, fmt.Errorf("reference %s: %w", q.Name, err)
		}
		want[q.Name] = canonical(res)
	}
	return tables, w, want, nil
}

// depotPerTPCHScale is the per-node depot of tpch-cold per unit of
// TPC-H scale: about a quarter of the roughly 0.95 MB each node's depot
// holds when it caches its whole share at scale 1.
const depotPerTPCHScale = 240 << 10

func prepareTPCH(cold bool) func(o options) (*instance, error) {
	return func(o options) (*instance, error) {
		tables, w, want, err := tpchInputs(o)
		if err != nil {
			return nil, err
		}
		queries := workload.TPCHQueries()
		var depot int64
		if cold {
			depot = int64(depotPerTPCHScale * o.scale)
		}
		check := func(name string, res *eon.Result) error {
			return checkRows(name, res, want[name])
		}
		inst := &instance{}
		for _, q := range queries {
			inst.statements = append(inst.statements, q.SQL)
		}
		inst.setup = func() (*env, error) {
			e, err := newEnv(depot, 0, "lineitem_super")
			if err != nil {
				return nil, err
			}
			if err := execAll(e.db, w.DDL()); err != nil {
				return nil, err
			}
			if err := loadTables(e.db, tables); err != nil {
				return nil, err
			}
			// Warm-up pass: fills the depot and the plan cache.
			s := e.db.NewSession()
			for _, q := range queries {
				res, err := s.Query(q.SQL)
				if err != nil {
					return nil, fmt.Errorf("warm-up %s: %w", q.Name, err)
				}
				if err := check(q.Name, res); err != nil {
					return nil, fmt.Errorf("warm-up: %w", err)
				}
			}
			return e, nil
		}
		inst.clients = func(r *runner) []func(int) {
			out := make([]func(int), tpchClients)
			for lane := range out {
				s := r.env.db.NewSession()
				next := lane * len(queries) / tpchClients
				out[lane] = func(lane int) {
					q := queries[next%len(queries)]
					next++
					var res *eon.Result
					traced := r.rec.Load() != nil
					s.Trace = traced
					_ = r.call(lane, kindQuery, func() (err error) {
						res, err = s.Query(q.SQL)
						return err
					}, func() error { return check(q.Name, res) })
					if traced {
						r.rec.Load().profile(s.LastProfile())
					}
				}
			}
			return out
		}
		inst.finish = func(*runner) error { return nil }
		return inst, nil
	}
}

// Dashboard: a co-segmented join-aggregate (orders_bycust and
// customer_super are both segmented by customer key) over a customer-key
// range, one range per call.
const (
	dashboardSQL = `SELECT c.c_mktsegment, COUNT(*) AS orders, SUM(o.o_totalprice) AS revenue
	FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
	WHERE o.o_custkey BETWEEN ? AND ? AND c.c_custkey BETWEEN ? AND ?
	GROUP BY c.c_mktsegment ORDER BY revenue DESC`
	// dashboardRanges is the number of distinct parameter values.
	dashboardRanges = 1000
	// dashboardZipfS skews the parameter draw.
	dashboardZipfS = 1.1
	// dashboardResultCache is below the distinct-result working set, so
	// the result cache both hits and evicts.
	dashboardResultCache = 64 << 10
	dashboardClients     = 2
)

func prepareDashboard(o options) (*instance, error) {
	w := workload.DefaultTPCH(o.scale)
	w.Seed = o.seed
	tables := w.Tables()
	nr := min(dashboardRanges, w.Customers)
	type keyRange struct{ lo, hi int64 }
	ranges := make([]keyRange, nr)
	for i := range ranges {
		ranges[i] = keyRange{int64(i*w.Customers/nr + 1), int64((i + 1) * w.Customers / nr)}
	}
	args := func(k keyRange) []types.Datum {
		lo, hi := types.NewInt(k.lo), types.NewInt(k.hi)
		return []types.Datum{lo, hi, lo, hi}
	}
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	if err := execAll(ref, w.DDL()); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if err := loadTables(ref, tables); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	want := make([][]types.Row, nr)
	rs := ref.NewSession()
	for i, k := range ranges {
		res, err := rs.QueryArgs(dashboardSQL, args(k)...)
		if err != nil {
			return nil, fmt.Errorf("reference dashboard: %w", err)
		}
		want[i] = canonical(res)
	}
	// Which ranges are hot depends on the seed.
	perm := rand.New(rand.NewSource(o.seed)).Perm(nr)
	draw := func(lane int) func() int {
		rng := rand.New(rand.NewSource(o.seed*31 + int64(lane) + 1))
		z := rand.NewZipf(rng, dashboardZipfS, 1, uint64(nr-1))
		return func() int { return perm[z.Uint64()] }
	}

	inst := &instance{statements: []string{dashboardSQL}}
	inst.setup = func() (*env, error) {
		e, err := newEnv(0, dashboardResultCache, "orders_bycust")
		if err != nil {
			return nil, err
		}
		if err := execAll(e.db, w.DDL()); err != nil {
			return nil, err
		}
		if err := loadTables(e.db, tables); err != nil {
			return nil, err
		}
		// Warm-up: the depot, the plan cache and some result-cache
		// entries, from a draw stream the timed clients do not use.
		s := e.db.NewSession()
		next := draw(-1)
		for i := 0; i < 50; i++ {
			k := next()
			res, err := s.QueryArgs(dashboardSQL, args(ranges[k])...)
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if err := checkRows(fmt.Sprintf("warm-up range %d", k), res, want[k]); err != nil {
				return nil, err
			}
		}
		return e, nil
	}
	checked := make([]atomic.Bool, nr)
	inst.clients = func(r *runner) []func(int) {
		out := make([]func(int), dashboardClients)
		for lane := range out {
			s := r.env.db.NewSession()
			next := draw(lane)
			out[lane] = func(lane int) {
				k := next()
				var res *eon.Result
				traced := r.rec.Load() != nil
				s.Trace = traced
				_ = r.call(lane, kindQuery, func() (err error) {
					res, err = s.QueryArgs(dashboardSQL, args(ranges[k])...)
					return err
				}, func() error {
					// Each distinct parameter is checked once.
					if checked[k].Swap(true) {
						return nil
					}
					return checkRows(fmt.Sprintf("dashboard range %d", k), res, want[k])
				})
				if traced {
					r.rec.Load().profile(s.LastProfile())
				}
			}
		}
		return out
	}
	inst.finish = func(*runner) error { return nil }
	return inst, nil
}

// Trickle ingest: one loader issuing small LoadRows batches with the
// tuple mover, metadata sync and file GC on a fixed load-count cadence,
// beside one reader looping a grouped dashboard aggregate.
const (
	trickleRows = 250
	// trickleCadence is the number of loads between tuple-mover passes:
	// each load adds one container per shard, so several hundred
	// containers accumulate between passes.
	trickleCadence = 100
	// tricklePreload loads happen in set-up.
	tricklePreload = 20

	// trickleReaderSQL aggregates the most recent trickleWindow rows
	// (ts is the row's position in load order). Containers holding only
	// older rows are pruned from their catalog stats, so the reader scans
	// a bounded amount of data while it still plans against every
	// container in the catalog.
	trickleReaderSQL = `SELECT metric, COUNT(*) AS n, SUM(value) AS total
	FROM readings WHERE ts >= ? GROUP BY metric ORDER BY metric`
	trickleWindow = 40 * trickleRows

	// The reader is paced: it may run trickleReadsPerLoad queries per
	// acknowledged load and trickleReadsPerPass more when a tuple-mover
	// pass starts, so it also reads while mergeout, sync and GC run.
	// Every load cycle then carries the same mix of reads and writes.
	// Unpaced, the reader ran 3 to 4 queries per load, fewer when the
	// host was busy, and the per-op figures moved with that mix.
	trickleReadsPerLoad = 1
	trickleReadsPerPass = trickleCadence
	// trickleIdle is how long a reader waiting for its next query
	// sleeps before it checks whether the phase is over.
	trickleIdle = 10 * time.Millisecond
)

// trickleFinalSQL identify the loaded rows: ts is unique per row, so a
// lost or duplicated row changes the counts or the ts range.
var trickleFinalSQL = []string{
	`SELECT COUNT(*), MIN(ts), MAX(ts), SUM(value), SUM(device_id) FROM readings`,
	`SELECT COUNT(DISTINCT ts) FROM readings`,
}

// finalRows runs the identifying queries.
func finalRows(db *eon.DB) ([]types.Row, error) {
	s := db.NewSession()
	var rows []types.Row
	for _, q := range trickleFinalSQL {
		res, err := s.Query(q)
		if err != nil {
			return nil, err
		}
		rows = append(rows, res.Rows()...)
	}
	return rows, nil
}

// logicalBytes is the user data size of a readings batch: two integers,
// a float and the metric string per row.
func logicalBytes(b *eon.Batch) int64 {
	n := int64(b.NumRows()) * 24
	for _, s := range b.Cols[2].Strs {
		n += int64(len(s))
	}
	return n
}

func prepareTrickle(o options) (*instance, error) {
	// w.Batch(seq) depends only on the seed and seq, so the loader and
	// the reference generate identical rows; the loader generates each
	// batch just before it loads it.
	w := workload.IoT{RowsPerLoad: trickleRows, Seed: o.seed}
	var acked atomic.Int64  // rows acknowledged
	var issued atomic.Int64 // rows of loads issued, acknowledged or not
	// Written by set-up and the loader goroutine only; finish reads them
	// after the loader has stopped.
	var loads int     // loads acknowledged
	var logical int64 // logical bytes acknowledged

	inst := &instance{statements: []string{trickleReaderSQL}}
	inst.setup = func() (*env, error) {
		e, err := newEnv(0, 0, "readings_super")
		if err != nil {
			return nil, err
		}
		if err := execAll(e.db, w.DDL()); err != nil {
			return nil, err
		}
		logical = 0
		for i := 0; i < tricklePreload; i++ {
			b := w.Batch(int64(i))
			if err := e.db.LoadRows("readings", b); err != nil {
				return nil, fmt.Errorf("preload: %w", err)
			}
			logical += logicalBytes(b)
		}
		if _, err := e.db.RunTupleMover(); err != nil {
			return nil, fmt.Errorf("preload tuple mover: %w", err)
		}
		if _, err := e.db.NewSession().QueryArgs(trickleReaderSQL, types.NewInt(0)); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		loads = tricklePreload
		acked.Store(int64(tricklePreload * trickleRows))
		issued.Store(acked.Load())
		return e, nil
	}
	inst.clients = func(r *runner) []func(int) {
		db := r.env.db
		store := r.env.store
		// reads holds the reader's allowance, one token per query. It
		// is sized for more than a whole cycle's allowance, so a grant
		// is lost only when the reader falls that far behind.
		reads := make(chan struct{}, 2*(trickleCadence*trickleReadsPerLoad+trickleReadsPerPass))
		grant := func(n int) {
			for i := 0; i < n; i++ {
				select {
				case reads <- struct{}{}:
				default:
				}
			}
		}
		loader := func(lane int) {
			b := w.Batch(int64(loads))
			before := store.snap()
			issued.Add(int64(b.NumRows()))
			start := time.Now()
			err := r.call(lane, kindLoad, func() error { return db.LoadRows("readings", b) }, nil)
			busy := time.Since(start)
			after := store.snap()
			if err != nil {
				// The load may or may not have committed; stop loading so
				// the final checks stay exact (the run has already failed).
				r.stop.Store(true)
				return
			}
			loads++
			acked.Add(int64(b.NumRows()))
			grant(trickleReadsPerLoad)
			logical += logicalBytes(b)
			r.counts(func(lc *layerCounts) {
				lc.loadBusyS += busy.Seconds()
				lc.loadPutS += float64(after.putBusy-before.putBusy) / 1e9
				lc.loadPutB += after.putBytes - before.putBytes
				lc.rowsLoaded += int64(b.NumRows())
			})
			if (loads-tricklePreload)%trickleCadence != 0 {
				return
			}
			defer r.endCycle()
			grant(trickleReadsPerPass)
			before = store.snap()
			start = time.Now()
			var ms eon.MergeoutStats
			err = r.call(lane, kindTupleMover, func() (err error) {
				ms, err = db.RunTupleMover()
				return err
			}, nil)
			tmBusy := time.Since(start)
			after = store.snap()
			r.counts(func(lc *layerCounts) {
				lc.tmRuns++
				lc.tmBusyS += tmBusy.Seconds()
				lc.tmMerged += int64(ms.ContainersMerged)
				lc.tmPutBytes += after.putBytes - before.putBytes
			})
			if err != nil {
				return
			}
			start = time.Now()
			if err := r.call(lane, kindSync, db.SyncMetadata, nil); err != nil {
				return
			}
			syncS := time.Since(start).Seconds()
			r.counts(func(lc *layerCounts) { lc.syncS += syncS })
			_ = r.call(lane, kindGC, func() error { _, err := db.RunGC(); return err }, nil)
		}
		s := db.NewSession()
		reader := func(lane int) {
			idle := time.NewTimer(trickleIdle)
			select {
			case <-reads:
				idle.Stop()
			case <-idle.C:
				return
			}
			var res *eon.Result
			var from, lo, hi int64
			traced := r.rec.Load() != nil
			s.Trace = traced
			_ = r.call(lane, kindQuery, func() (err error) {
				// A load is visible from its commit, just before it is
				// acknowledged. Loads are sequential and ts counts rows in
				// load order, so the count of rows with ts >= from lies
				// between the rows acknowledged before the query and the
				// rows issued by its end, less from.
				lo = acked.Load()
				from = max(0, lo-trickleWindow)
				res, err = s.QueryArgs(trickleReaderSQL, types.NewInt(from))
				hi = issued.Load()
				return err
			}, func() error {
				var n int64
				for _, v := range res.Batch.Cols[1].Ints {
					n += v
				}
				if n < lo-from || n > hi-from {
					return fmt.Errorf("reader counted %d rows from ts %d; %d acknowledged before, %d issued by its end",
						n, from, lo, hi)
				}
				return nil
			})
			if traced {
				r.rec.Load().profile(s.LastProfile())
			}
		}
		return []func(int){loader, reader}
	}
	inst.finish = func(r *runner) error {
		e := r.env
		live, err := e.sharedBytes()
		if err != nil {
			return err
		}
		r.spaceAmp = float64(live) / float64(logical)

		// Reference: every acknowledged batch, loaded as one.
		ref, err := newReference()
		if err != nil {
			return err
		}
		if err := execAll(ref, w.DDL()); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		all := eon.NewBatch(w.Schema(), loads*trickleRows)
		for i := 0; i < loads; i++ {
			b := w.Batch(int64(i))
			for j := 0; j < b.NumRows(); j++ {
				all.AppendRow(b.Row(j))
			}
		}
		if err := ref.LoadRows("readings", all); err != nil {
			return fmt.Errorf("reference load: %w", err)
		}
		want, err := finalRows(ref)
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		got, err := finalRows(e.db)
		if err != nil {
			return fmt.Errorf("final count: %w", err)
		}
		r.checks.Add(1)
		if ok, diff := sameRows(got, want); !ok {
			return fmt.Errorf("final rows differ from the reference: %s", diff)
		}

		// Durability: sync, shut down and revive from the same shared
		// storage; every acknowledged row and no other must be there.
		start := time.Now()
		if err := e.db.SyncMetadata(); err != nil {
			return fmt.Errorf("durability sync: %w", err)
		}
		if err := e.db.Shutdown(); err != nil {
			return fmt.Errorf("durability shutdown: %w", err)
		}
		revived, err := eon.Revive(eon.Config{Shared: e.store, Net: e.cfg.Net})
		if err != nil {
			return fmt.Errorf("durability revive: %w", err)
		}
		r.counts(func(lc *layerCounts) { lc.reviveS = time.Since(start).Seconds() })
		got, err = finalRows(revived)
		if err != nil {
			return fmt.Errorf("durability query: %w", err)
		}
		r.checks.Add(1)
		if ok, diff := sameRows(got, want); !ok {
			return fmt.Errorf("revived rows differ from the acknowledged rows: %s", diff)
		}
		return revived.Shutdown()
	}
	return inst, nil
}
