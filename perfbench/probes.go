package main

import (
	"context"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"eon"
	"eon/internal/cache"
	"eon/internal/catalog"
	"eon/internal/core"
	"eon/internal/netsim"
	"eon/internal/objstore"
)

// timedStore is the objstore.Store handed to the cluster as
// Config.Shared, with the simulator innermost. It times and counts every
// request and returns the inner store's bytes and errors unchanged; it
// adds no latency of its own, so the simulator's latency model is the
// only one in effect. When a recorder is attached, each request is also
// recorded as a span.
type timedStore struct {
	inner objstore.Store
	rec   atomic.Pointer[recorder]
	// keepLats makes the store keep every GET latency, for the per-layer
	// GET percentiles of a traced run.
	keepLats atomic.Bool

	gets, puts, lists, deletes reqCounter
	errors                     atomic.Int64

	mu      sync.Mutex
	getLats []float64 // GET/GetRange latencies in ms, append-only
}

type reqCounter struct {
	n, bytes, busyNS atomic.Int64
}

func (c *reqCounter) add(bytes int64, d time.Duration) {
	c.n.Add(1)
	c.bytes.Add(bytes)
	c.busyNS.Add(int64(d))
}

func newTimedStore(inner objstore.Store) *timedStore {
	return &timedStore{inner: inner}
}

// done accounts one finished request.
func (s *timedStore) done(kind spanKind, c *reqCounter, start time.Time, bytes int64, err error) {
	d := time.Since(start)
	c.add(bytes, d)
	if err != nil {
		s.errors.Add(1)
	}
	if c == &s.gets && s.keepLats.Load() {
		s.mu.Lock()
		s.getLats = append(s.getLats, float64(d)/float64(time.Millisecond))
		s.mu.Unlock()
	}
	if r := s.rec.Load(); r != nil {
		r.storage(kind, start, d)
	}
}

func (s *timedStore) Put(ctx context.Context, key string, data []byte) error {
	start := time.Now()
	err := s.inner.Put(ctx, key, data)
	s.done(kindPut, &s.puts, start, int64(len(data)), err)
	return err
}

func (s *timedStore) Get(ctx context.Context, key string) ([]byte, error) {
	start := time.Now()
	data, err := s.inner.Get(ctx, key)
	s.done(kindGet, &s.gets, start, int64(len(data)), err)
	return data, err
}

func (s *timedStore) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	start := time.Now()
	data, err := s.inner.GetRange(ctx, key, offset, length)
	s.done(kindGet, &s.gets, start, int64(len(data)), err)
	return data, err
}

func (s *timedStore) List(ctx context.Context, prefix string) ([]objstore.Info, error) {
	start := time.Now()
	infos, err := s.inner.List(ctx, prefix)
	s.done(kindList, &s.lists, start, 0, err)
	return infos, err
}

func (s *timedStore) Delete(ctx context.Context, key string) error {
	start := time.Now()
	err := s.inner.Delete(ctx, key)
	s.done(kindDelete, &s.deletes, start, 0, err)
	return err
}

// storeSnap is a point-in-time copy of the decorator's counters.
type storeSnap struct {
	gets, getBytes, getBusy    int64
	puts, putBytes, putBusy    int64
	lists, deletes, errs, nLat int64
}

func (s *timedStore) snap() storeSnap {
	s.mu.Lock()
	n := int64(len(s.getLats))
	s.mu.Unlock()
	return storeSnap{
		gets: s.gets.n.Load(), getBytes: s.gets.bytes.Load(), getBusy: s.gets.busyNS.Load(),
		puts: s.puts.n.Load(), putBytes: s.puts.bytes.Load(), putBusy: s.puts.busyNS.Load(),
		lists: s.lists.n.Load(), deletes: s.deletes.n.Load(), errs: s.errors.Load(), nLat: n,
	}
}

// getLatsBetween returns the GET latencies recorded between two
// snapshots.
func (s *timedStore) getLatsBetween(a, b storeSnap) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.getLats[a.nLat:b.nLat]...)
}

// runtimeNames are the runtime/metrics samples the probe reads.
var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
	"/sched/goroutines:goroutines",
}

type runtimeSnap struct {
	gcCycles, allocBytes uint64
	gcPauseS             float64
	gorout               uint64
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r runtimeSnap
	r.gcCycles = s[0].Value.Uint64()
	r.allocBytes = s[1].Value.Uint64()
	r.gcPauseS = histSum(s[2].Value.Float64Histogram())
	r.gorout = s[3].Value.Uint64()
	return r
}

// histSum estimates a runtime/metrics histogram's total from bucket
// midpoints (the runtime exports no exact pause total).
func histSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case lo < -1e300:
			lo = hi
		case hi > 1e300:
			hi = lo
		}
		sum += float64(c) * (lo + hi) / 2
	}
	return sum
}

// probe reads every layer's counters from outside the program: the
// storage decorator, the simulator's request bill, the depot caches,
// the scan pipeline, the interconnect, the resilience layer, the
// metrics registry and the Go runtime. snapshot and delta are the one
// place the per-layer metric names are defined.
type probe struct {
	db    *eon.DB
	sim   *objstore.Sim
	store *timedStore
	// hotProj names the projection whose catalog lookups are timed.
	hotProj string
	// layers makes the sampler read the per-layer gauges and time the
	// catalog lookups too. Untraced runs sample the heap alone, so the
	// end-to-end figures bill none of that work.
	layers bool
	// heapSample is the sampler's reusable runtime/metrics buffer.
	heapSample []metrics.Sample

	// Sampled while a phase runs (see sampler).
	mu             sync.Mutex
	heap           []heapSample
	heapPeak       uint64
	goroutinesPeak uint64
	objectsPeak    int
	containersPeak int
	containersOfUS []float64
	deleteVecsUS   []float64
}

type heapSample struct {
	at    time.Time
	bytes uint64
}

type sample struct {
	store   storeSnap
	sim     objstore.Stats
	cache   cache.Stats
	scan    core.ScanStats
	net     netsim.Stats
	res     eon.ResilienceStats
	reg     map[string]int64
	rt      runtimeSnap
	cpu     time.Duration // process user+system CPU time
	version uint64
}

// processCPU returns the CPU time the process has used. Time the host
// withheld from the process (steal) is not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	// getrusage fails only for an invalid "who" or buffer, neither
	// possible here; a zero reading would show as a zero metric.
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (p *probe) catalog() *catalog.Catalog {
	return p.db.Internal().Nodes()[0].Catalog()
}

func (p *probe) snapshot() sample {
	s := sample{
		store: p.store.snap(),
		sim:   p.sim.Stats(),
		scan:  p.db.ScanStats(),
		net:   p.db.Internal().Net().Stats(),
		res:   p.db.ResilienceStats(),
		reg:   p.db.Metrics().Counters,
		rt:    readRuntime(),
		cpu:   processCPU(),
	}
	for _, n := range p.db.Internal().Nodes() {
		cs := n.Cache().Stats()
		s.cache.Hits += cs.Hits
		s.cache.Misses += cs.Misses
		s.cache.Evictions += cs.Evictions
		s.cache.CoalescedFetches += cs.CoalescedFetches
	}
	s.version = p.catalog().Version()
	return s
}

// heapSamplesCap is the number of heap samples kept without growing:
// more than a minute at the sampling interval.
const heapSamplesCap = 4096

// resetPeaks starts a new sampling phase.
func (p *probe) resetPeaks() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.heap = make([]heapSample, 0, heapSamplesCap)
	p.heapPeak, p.goroutinesPeak, p.objectsPeak, p.containersPeak = 0, 0, 0, 0
	p.containersOfUS, p.deleteVecsUS = nil, nil
}

// sampleOnce records the heap and, when p.layers is set, the other
// gauges whose peak matters and the time of the catalog lookups a scan
// makes on the hot projection.
func (p *probe) sampleOnce() {
	if p.heapSample == nil {
		p.heapSample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	}
	metrics.Read(p.heapSample)
	heap := p.heapSample[0].Value.Uint64()
	if !p.layers {
		p.mu.Lock()
		p.heap = append(p.heap, heapSample{time.Now(), heap})
		p.heapPeak = max(p.heapPeak, heap)
		p.mu.Unlock()
		return
	}
	rt := readRuntime()
	snap := p.catalog().Snapshot()
	containers := 0
	var proj *catalog.Projection
	if p.hotProj != "" {
		proj, _ = snap.ProjectionByName(p.hotProj)
	}
	var cofUS, dvUS float64
	if proj != nil {
		start := time.Now()
		var all []*catalog.StorageContainer
		for _, sh := range snap.Shards() {
			all = append(all, snap.ContainersOf(proj.OID, sh.Index)...)
		}
		cofUS = float64(time.Since(start)) / float64(time.Microsecond)
		start = time.Now()
		for _, c := range all {
			snap.DeleteVectorsOf(c.OID)
		}
		if len(all) > 0 {
			dvUS = float64(time.Since(start)) / float64(time.Microsecond) / float64(len(all))
		}
	}
	snap.ForEach(catalog.KindStorageContainer, func(catalog.Object) bool {
		containers++
		return true
	})
	p.mu.Lock()
	defer p.mu.Unlock()
	p.heap = append(p.heap, heapSample{time.Now(), heap})
	p.heapPeak = max(p.heapPeak, heap)
	p.goroutinesPeak = max(p.goroutinesPeak, rt.gorout)
	p.objectsPeak = max(p.objectsPeak, snap.Len())
	p.containersPeak = max(p.containersPeak, containers)
	if proj != nil {
		p.containersOfUS = append(p.containersOfUS, cofUS)
		p.deleteVecsUS = append(p.deleteVecsUS, dvUS)
	}
}

// sampler runs sampleOnce every interval until stop is closed, and once
// more before it returns.
func (p *probe) sampler(stop <-chan struct{}, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		p.sampleOnce()
		select {
		case <-stop:
			p.sampleOnce()
			return
		case <-t.C:
		}
	}
}

// layerCounts are the work counts a phase's per-layer figures are
// normalized by.
type layerCounts struct {
	ops        int64 // completed ops of every kind
	tmRuns     int64
	tmBusyS    float64
	tmMerged   int64
	tmPutBytes int64
	syncS      float64
	loadBusyS  float64
	loadPutS   float64
	loadPutB   int64
	rowsLoaded int64
	reviveS    float64
}

// delta computes every per-layer metric between two snapshots. The
// names here are the ones BENCHMARK.json declares.
func (p *probe) delta(a, b sample, lc layerCounts) map[string]float64 {
	m := map[string]float64{}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}

	// objstore: the timing decorator.
	st, st0 := b.store, a.store
	m["objstore.gets"] = float64(st.gets - st0.gets)
	m["objstore.get_bytes"] = float64(st.getBytes - st0.getBytes)
	m["objstore.get_busy_s"] = sec(st.getBusy - st0.getBusy)
	lats := p.store.getLatsBetween(a.store, b.store)
	m["objstore.get_p50_ms"] = median(lats)
	_, m["objstore.get_p99_ms"] = percentile(lats, 99)
	m["objstore.puts"] = float64(st.puts - st0.puts)
	m["objstore.put_bytes"] = float64(st.putBytes - st0.putBytes)
	m["objstore.put_busy_s"] = sec(st.putBusy - st0.putBusy)
	m["objstore.lists"] = float64(st.lists - st0.lists)
	m["objstore.deletes"] = float64(st.deletes - st0.deletes)
	m["objstore.errors"] = float64(st.errs - st0.errs)

	// resilience.
	m["resilience.retries"] = float64(b.res.Retries - a.res.Retries)
	m["resilience.hedges_fired"] = float64(b.res.HedgesFired - a.res.HedgesFired)
	m["resilience.hedges_won"] = float64(b.res.HedgesWon - a.res.HedgesWon)
	m["resilience.fallbacks"] = float64(b.res.Fallbacks - a.res.Fallbacks)

	// cache (the depots of every node).
	hits := float64(b.cache.Hits - a.cache.Hits)
	misses := float64(b.cache.Misses - a.cache.Misses)
	m["cache.hits"] = hits
	m["cache.misses"] = misses
	m["cache.coalesced"] = float64(b.cache.CoalescedFetches - a.cache.CoalescedFetches)
	m["cache.evictions"] = float64(b.cache.Evictions - a.cache.Evictions)
	m["cache.hit_ratio"] = ratio(hits, hits+misses)

	// scan: colenc/rosfile/storage decode and the expr filter kernels.
	m["scan.decode_s"] = (b.scan.Decode - a.scan.Decode).Seconds()
	m["scan.rows_decoded"] = float64(b.scan.RowsScanned - a.scan.RowsScanned)
	m["scan.blocks_scanned"] = float64(b.scan.BlocksScanned - a.scan.BlocksScanned)
	m["scan.blocks_pruned"] = float64(b.scan.BlocksPruned - a.scan.BlocksPruned)
	m["scan.containers_pruned"] = float64(b.scan.ContainersPruned - a.scan.ContainersPruned)
	m["scan.io_wait_s"] = (b.scan.IOWait - a.scan.IOWait).Seconds()
	m["scan.filter_s"] = (b.scan.Filter - a.scan.Filter).Seconds()
	m["scan.rows_vectorized"] = float64(b.scan.RowsVectorized - a.scan.RowsVectorized)
	m["scan.rows_fallback"] = float64(b.scan.RowsFallback - a.scan.RowsFallback)

	// sql/planner and the result cache, from the registry.
	reg := func(name string) float64 { return float64(b.reg[name] - a.reg[name]) }
	m["plancache.hits"] = reg("plancache.hits")
	m["plancache.misses"] = reg("plancache.misses")
	m["plancache.replans"] = reg("plancache.replans")
	rh, rm := reg("resultcache.hits"), reg("resultcache.misses")
	m["resultcache.hits"] = rh
	m["resultcache.misses"] = rm
	m["resultcache.evictions"] = reg("resultcache.evictions")
	m["resultcache.hit_ratio"] = ratio(rh, rh+rm)

	// catalog.
	p.mu.Lock()
	m["catalog.objects_peak"] = float64(p.objectsPeak)
	m["catalog.containers_peak"] = float64(p.containersPeak)
	m["catalog.containersof_us"] = median(p.containersOfUS)
	m["catalog.deletevectorsof_us"] = median(p.deleteVecsUS)
	heapPeak, goroutinesPeak := p.heapPeak, p.goroutinesPeak
	p.mu.Unlock()
	m["catalog.commits"] = float64(b.version - a.version)
	m["catalog.sync_s"] = lc.syncS
	m["catalog.revive_s"] = lc.reviveS

	// netsim.
	m["net.messages"] = float64(b.net.Messages - a.net.Messages)
	m["net.bytes"] = float64(b.net.Bytes - a.net.Bytes)

	// core load path and the tuple mover.
	m["load.busy_s"] = lc.loadBusyS
	m["load.put_busy_s"] = lc.loadPutS
	m["tuplemover.runs"] = float64(lc.tmRuns)
	m["tuplemover.busy_s"] = lc.tmBusyS
	m["tuplemover.containers_merged"] = float64(lc.tmMerged)
	m["tuplemover.bytes_rewritten"] = float64(lc.tmPutBytes)
	m["tuplemover.write_amp"] = ratio(float64(lc.tmPutBytes), float64(lc.loadPutB))

	// Go runtime.
	m["runtime.gc_cycles"] = float64(b.rt.gcCycles - a.rt.gcCycles)
	m["runtime.gc_pause_s"] = b.rt.gcPauseS - a.rt.gcPauseS
	m["runtime.alloc_bytes_per_op"] = ratio(float64(b.rt.allocBytes-a.rt.allocBytes), float64(lc.ops))
	m["runtime.goroutines_peak"] = float64(goroutinesPeak)
	m["runtime.heap_peak_mb"] = float64(heapPeak) / (1 << 20)
	return m
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// heapPeaks returns the peak heap (MiB) of each slot.
func (p *probe) heapPeaks(sl slots) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	peaks := make([]float64, sl.n)
	for _, h := range p.heap {
		if i, ok := sl.index(h.at); ok {
			peaks[i] = max(peaks[i], float64(h.bytes)/(1<<20))
		}
	}
	return peaks
}
