package main

import (
	"sort"
	"time"
)

// The calibration kernel. It is FROZEN: a later change that edits this file
// changes the unit every host-adjusted metric is expressed in, so results
// before and after it cannot be compared. It deliberately imports nothing
// from the repository — a faster sparse package must not make the host look
// faster.
//
// The kernel mirrors what the servers spend their time on (hash-map
// accumulation over CSR rows, key extraction, sort, ordered reduction): a
// two-hop expansion of calibSeeds seed rows over a synthetic CSR built from
// a fixed xorshift stream. Its operation count is a constant of the graph,
// so its wall time is a reading of how fast this host is right now.
const (
	calibRows  = 20000
	calibSeeds = 400
	// calibRefS is the kernel's wall time on the 2-vCPU guest the benchmark
	// was defined on: the median of the 466 readings taken during two
	// 50-round full runs half an hour apart (quartiles 0.137 s and 0.167 s;
	// the guest is that unsteady). speed_index = calibRefS / measured time.
	calibRefS = 0.155
)

type calibGraph struct {
	off []int32
	adj []int32
	w   []float64
	acc map[int32]float64
	nxt map[int32]float64
	key []int32
}

func newCalibGraph() *calibGraph {
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		return x * 0x2545F4914F6CDD1D
	}
	g := &calibGraph{
		off: make([]int32, calibRows+1),
		acc: make(map[int32]float64),
		nxt: make(map[int32]float64),
	}
	for r := 0; r < calibRows; r++ {
		deg := 16 + int(next()%64)
		for e := 0; e < deg; e++ {
			g.adj = append(g.adj, int32(next()%calibRows))
			g.w = append(g.w, float64(1+next()%4))
		}
		g.off[r+1] = int32(len(g.adj))
	}
	return g
}

// sortedKeys extracts m's keys in ascending order into the reused buffer.
func (g *calibGraph) sortedKeys(m map[int32]float64) []int32 {
	g.key = g.key[:0]
	for k := range m {
		g.key = append(g.key, k)
	}
	sort.Slice(g.key, func(i, j int) bool { return g.key[i] < g.key[j] })
	return g.key
}

// run expands the first seeds seed rows two hops and returns the number of
// accumulate operations performed and a checksum (so the work cannot be
// optimised away). Both are functions of seeds alone.
func (g *calibGraph) run(seeds int) (ops int64, sum float64) {
	for s := 0; s < seeds; s++ {
		row := int32(s * (calibRows / calibSeeds))
		clear(g.acc)
		for e := g.off[row]; e < g.off[row+1]; e++ {
			g.acc[g.adj[e]] += g.w[e]
			ops++
		}
		clear(g.nxt)
		for _, v := range g.sortedKeys(g.acc) {
			x := g.acc[v]
			for e := g.off[v]; e < g.off[v+1]; e++ {
				g.nxt[g.adj[e]] += x * g.w[e]
				ops++
			}
		}
		for _, v := range g.sortedKeys(g.nxt) {
			sum += g.nxt[v]
		}
	}
	return ops, sum
}

// calibrator times the kernel. seeds < calibSeeds is the shortened loop of
// -smoke; its reference time scales with the seed count.
type calibrator struct {
	g     *calibGraph
	seeds int
	times []float64 // every reading taken, seconds
	sink  float64
}

func newCalibrator(seeds int) *calibrator {
	c := &calibrator{g: newCalibGraph(), seeds: seeds}
	c.g.run(seeds) // fault the maps and the CSR in before the first reading
	return c
}

// read runs the kernel once and returns its wall time in seconds.
func (c *calibrator) read() float64 {
	start := time.Now()
	_, sum := c.g.run(c.seeds)
	t := time.Since(start).Seconds()
	c.sink += sum
	c.times = append(c.times, t)
	return t
}

// speedIndex converts the two readings around a measurement into the host
// speed during it: above 1 the host ran faster than the reference.
func (c *calibrator) speedIndex(before, after float64) float64 {
	ref := calibRefS * float64(c.seeds) / calibSeeds
	return ref / ((before + after) / 2)
}
