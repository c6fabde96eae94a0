package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"eon"
)

// spanKind names what a span times. Op kinds are calls the benchmark
// makes into the program; request kinds are shared-storage requests seen
// by the timing decorator.
type spanKind string

const (
	kindQuery      spanKind = "query"
	kindLoad       spanKind = "load"
	kindTupleMover spanKind = "tuplemover"
	kindSync       spanKind = "sync"
	kindGC         spanKind = "gc"

	kindGet    spanKind = "objstore.get"
	kindPut    spanKind = "objstore.put"
	kindList   spanKind = "objstore.list"
	kindDelete spanKind = "objstore.delete"
)

// opKindsFor lists the op kinds that issue a storage request kind: a
// request is parented only to an open op of one of them.
var opKindsFor = map[spanKind][]spanKind{
	kindGet:    {kindQuery, kindTupleMover},
	kindPut:    {kindLoad, kindTupleMover, kindSync},
	kindList:   {kindQuery, kindLoad, kindTupleMover, kindSync, kindGC},
	kindDelete: {kindTupleMover, kindSync, kindGC},
}

// span is one recorded interval. Start and End are nanoseconds since the
// recorder started. Op is the id shared by the spans of one request: an
// op span's own id, and for a storage request the op it was attributed
// to (0 when none was).
type span struct {
	ID     int64    `json:"id"`
	Parent int64    `json:"parent"`
	Op     int64    `json:"op"`
	Name   spanKind `json:"name"`
	Lane   int      `json:"lane"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
}

// recorder keeps spans in memory; they are attributed and written out
// once the run ends. A nil *recorder records nothing.
type recorder struct {
	t0 time.Time

	mu   sync.Mutex
	ops  []span
	reqs []span
	// opSelf sums each program operator's self time (from the session's
	// own trace) over the traced queries.
	opSelf map[string]time.Duration
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), opSelf: map[string]time.Duration{}}
}

// op records one call into the program made by client lane.
func (r *recorder) op(kind spanKind, lane int, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	s := int64(start.Sub(r.t0))
	r.mu.Lock()
	r.ops = append(r.ops, span{Name: kind, Lane: lane, Start: s, End: s + int64(d)})
	r.mu.Unlock()
}

// storage records one shared-storage request.
func (r *recorder) storage(kind spanKind, start time.Time, d time.Duration) {
	s := int64(start.Sub(r.t0))
	r.mu.Lock()
	r.reqs = append(r.reqs, span{Name: kind, Start: s, End: s + int64(d)})
	r.mu.Unlock()
}

// profile adds a query's program profile to the operator self times:
// each profile node's wall time minus its children's.
func (r *recorder) profile(p *eon.QueryProfile) {
	if r == nil || p == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p.Visit(func(n *eon.QueryProfile) {
		self := n.Wall
		for _, c := range n.Children {
			self -= c.Wall
		}
		if self < 0 {
			self = 0
		}
		name := n.Name
		if i := strings.IndexByte(name, ':'); i >= 0 {
			name = name[:i]
		}
		r.opSelf[name] += self
	})
}

// traceSummary is what the trace reports about a run.
type traceSummary struct {
	Spans        int
	Unattributed int
	Ambiguous    int
	// SelfS is each layer's self time in seconds: an op span's duration
	// minus the part its attributed storage requests cover, and a storage
	// request's whole duration.
	SelfS map[string]float64
	// OperatorSelfS is the program's own per-operator self time.
	OperatorSelfS map[string]float64
}

// finish attributes every storage request to the op that contains it,
// computes self times, and writes all spans to path as JSON lines.
func (r *recorder) finish(path string) (traceSummary, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.ops {
		r.ops[i].ID = int64(i + 1)
		r.ops[i].Op = r.ops[i].ID
	}
	ts := attribute(r.ops, r.reqs)
	ts.OperatorSelfS = map[string]float64{}
	for name, d := range r.opSelf {
		ts.OperatorSelfS[name] = d.Seconds()
	}
	if path == "" {
		return ts, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return ts, fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, group := range [][]span{r.ops, r.reqs} {
		for _, s := range group {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return ts, fmt.Errorf("write trace: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return ts, fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return ts, fmt.Errorf("write trace: %w", err)
	}
	return ts, nil
}

// attribute parents each storage request to the open op of a matching
// kind whose interval contains it. Ops of one lane never overlap, so
// each lane is searched by start time. With several candidates (ops on
// different lanes) the latest-started wins and the request counts as
// ambiguous; with none it counts as unattributed. It assigns ids to the
// storage spans and returns the self-time summary.
func attribute(ops, storage []span) traceSummary {
	lanes := map[int][]int{} // lane -> op indices sorted by start
	for i, o := range ops {
		lanes[o.Lane] = append(lanes[o.Lane], i)
	}
	for _, idx := range lanes {
		sort.Slice(idx, func(a, b int) bool { return ops[idx[a]].Start < ops[idx[b]].Start })
	}
	children := make([][][2]int64, len(ops))
	ts := traceSummary{Spans: len(ops) + len(storage), SelfS: map[string]float64{}}
	for i := range storage {
		s := &storage[i]
		s.ID = int64(len(ops) + i + 1)
		best := -1
		found := 0
		for _, idx := range lanes {
			// Last op of the lane starting at or before the request.
			k := sort.Search(len(idx), func(j int) bool { return ops[idx[j]].Start > s.Start }) - 1
			if k < 0 {
				continue
			}
			o := ops[idx[k]]
			if o.End < s.End || !kindMatches(s.Name, o.Name) {
				continue
			}
			found++
			if best < 0 || o.Start > ops[best].Start {
				best = idx[k]
			}
		}
		ts.SelfS[string(s.Name)] += float64(s.End-s.Start) / 1e9
		switch {
		case found == 0:
			ts.Unattributed++
			continue
		case found > 1:
			ts.Ambiguous++
		}
		s.Parent, s.Op = ops[best].ID, ops[best].ID
		children[best] = append(children[best], [2]int64{s.Start, s.End})
	}
	for i, o := range ops {
		self := o.End - o.Start - covered(children[i])
		ts.SelfS[string(o.Name)] += float64(self) / 1e9
	}
	return ts
}

func kindMatches(req, op spanKind) bool {
	for _, k := range opKindsFor[req] {
		if k == op {
			return true
		}
	}
	return false
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cs, ce := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > ce {
			total += ce - cs
			cs, ce = x[0], x[1]
			continue
		}
		ce = max(ce, x[1])
	}
	return total + ce - cs
}
