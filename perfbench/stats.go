package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs and how many
// samples lie above it. A failed op is recorded as infLatency, so it
// counts against every latency limit.
func percentile(xs []float64, p float64) (beyond int, v float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return len(s) - rank, s[rank-1]
}

// tailPercentiles are the candidates for a timing's reported tail,
// highest first. A timing is reported as its median and p99; a run too
// short to put tailMin samples beyond p99 reports a lower percentile and
// says which.
var tailPercentiles = []float64{99, 98, 95, 90, 75, 50}

// tailMin is the number of samples that must lie beyond a reported
// percentile.
const tailMin = 10

// tail is a timing's tail as reported: the highest candidate percentile
// with at least tailMin samples beyond it, its value, and the sample
// count it was taken from.
type tail struct {
	Pct   float64 `json:"pct"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// tailOf applies the percentile rule. With fewer than tailMin+1 samples
// no percentile qualifies and Pct is 0.
func tailOf(xs []float64) tail {
	t := tail{N: len(xs)}
	for _, p := range tailPercentiles {
		if beyond, v := percentile(xs, p); beyond >= tailMin {
			t.Pct, t.Value = p, v
			return t
		}
	}
	return t
}

// slots divides a measured window into consecutive slots. Throughput,
// median latency and peak heap are taken per slot and the median over
// slots is reported, so a disturbance that lasts a slot or two (a burst
// of work from another process on the host) moves the result little.
// Time past the last slot is not counted.
type slots struct {
	bounds []time.Time // slot i is [bounds[i], bounds[i+1])
	n      int
}

// fixedSlots cuts [start, start+elapsed) into whole slots of width.
func fixedSlots(start time.Time, elapsed, width time.Duration) slots {
	b := []time.Time{start}
	for t := start.Add(width); !t.After(start.Add(elapsed)); t = t.Add(width) {
		b = append(b, t)
	}
	return newSlots(b)
}

func newSlots(bounds []time.Time) slots {
	return slots{bounds: bounds, n: max(0, len(bounds)-1)}
}

// index returns the slot holding t.
func (s slots) index(t time.Time) (int, bool) {
	if s.n == 0 || t.Before(s.bounds[0]) || !t.Before(s.bounds[s.n]) {
		return 0, false
	}
	return sort.Search(s.n, func(i int) bool { return t.Before(s.bounds[i+1]) }), true
}

// within returns the latencies of the ops that completed inside a slot.
// ends[i] is when the op with latency lat[i] completed, as an offset
// from epoch.
func (s slots) within(lat []float64, ends []time.Duration) []float64 {
	var out []float64
	for i, v := range lat {
		if _, ok := s.index(epoch.Add(ends[i])); ok {
			out = append(out, v)
		}
	}
	return out
}

// rateAndMedian returns the median over slots of completed ops per
// second and of the slot's median latency. ends are as for within;
// failed ops (infLatency) are not completed.
func (s slots) rateAndMedian(lat []float64, ends []time.Duration) (rate, p50 float64) {
	counts := make([]float64, s.n)
	perSlot := make([][]float64, s.n)
	for i, v := range lat {
		j, ok := s.index(epoch.Add(ends[i]))
		if !ok {
			continue
		}
		perSlot[j] = append(perSlot[j], v)
		if v < infLatency {
			counts[j]++
		}
	}
	var meds []float64
	for j := range counts {
		counts[j] /= s.bounds[j+1].Sub(s.bounds[j]).Seconds()
		if len(perSlot[j]) > 0 {
			meds = append(meds, median(perSlot[j]))
		}
	}
	return median(counts), median(meds)
}
