package main

import (
	"math"
	"sort"
)

// checker audits one sink's input stream. Every record carries its
// position in the rep's stream (seq); a keyed stream also carries its
// position within its key's stream (keySeq).
//
// A seq seen twice is a duplicate. An unkeyed stream must arrive in seq
// order; a keyed stream must arrive in keySeq order per key (FIFO per key).
// A record arriving after a later one is reordered. A record whose content
// or state count is wrong is bad. Records never seen are lost; the client
// knows how many were attempted, so loss is counted at the end.
type checker struct {
	seen       []uint64 // bitset over seq
	distinct   int64
	dup        int64
	reordered  int64
	bad        int64
	maxSeq     int64
	lastKeySeq []int64 // per key; nil for unkeyed streams
}

func newChecker(keys int) *checker {
	c := &checker{maxSeq: -1}
	if keys > 0 {
		c.lastKeySeq = make([]int64, keys)
	}
	return c
}

// observe records one delivered record; ok reports whether its content
// (payload or per-key state count) is right.
func (c *checker) observe(seq int64, key int, keySeq int64, ok bool) {
	if seq < 0 {
		c.bad++
		return
	}
	w := int(seq >> 6)
	for w >= len(c.seen) {
		c.seen = append(c.seen, 0)
	}
	bit := uint64(1) << (seq & 63)
	if c.seen[w]&bit != 0 {
		c.dup++
		return
	}
	c.seen[w] |= bit
	c.distinct++
	if !ok {
		c.bad++
	}
	if c.lastKeySeq == nil {
		if seq < c.maxSeq {
			c.reordered++
		} else {
			c.maxSeq = seq
		}
		return
	}
	if key < 0 || key >= len(c.lastKeySeq) {
		c.bad++
		return
	}
	if keySeq < c.lastKeySeq[key] {
		c.reordered++
	} else {
		c.lastKeySeq[key] = keySeq
	}
}

// violations is the count of lost, duplicated, reordered and bad records
// given how many the stream should have held.
type violations struct {
	Lost, Dup, Reordered, Bad int64
}

func (v violations) total() int64 { return v.Lost + v.Dup + v.Reordered + v.Bad }

func (v *violations) add(o violations) {
	v.Lost += o.Lost
	v.Dup += o.Dup
	v.Reordered += o.Reordered
	v.Bad += o.Bad
}

func (c *checker) verdict(attempted int64) violations {
	lost := attempted - c.distinct
	if lost < 0 {
		lost = 0
	}
	return violations{Lost: lost, Dup: c.dup, Reordered: c.reordered, Bad: c.bad}
}

// percentile returns the q-quantile (0..1) of values by the nearest-rank
// method on a sorted copy; +Inf entries (undelivered records) sort last.
// It returns NaN for an empty sample.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return sortedPercentile(s, q)
}

func sortedPercentile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(values []float64) float64 { return percentile(values, 0.5) }

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

func maxOf(values []float64) float64 {
	m := 0.0
	for _, v := range values {
		if v > m {
			m = v
		}
	}
	return m
}
