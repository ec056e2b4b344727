package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// The end-to-end timings are scaled to a reference host speed. On a
// shared virtual machine the speed of the host drifts by a third or more
// within minutes, moving every timing of a run together (in CPU time as much as
// in wall time), far more than the run-to-run noise of the program
// itself. A fixed probe, independent of the program, runs between the
// measured steps; its mean time in a run says how fast the host was
// during that run, and every timing is multiplied by
// probeRefMs / probe mean (every rate divided by it). The mean, not the
// median: the probe's times fall in two clusters on a shared host, and a
// median of a few dozen flips between them. A change to the program moves
// the scaled figures as it moves the raw ones; the raw medians are
// printed beside them.

// probeRefMs is the probe's time on the reference host (a 2-vCPU Xeon at
// 2.1 GHz), so scaled figures read as that host's wall time.
const probeRefMs = 18.0

// probeInput is the probe's fixed input; probeBuf is sorted in place so
// the probe allocates nothing and no garbage collection lands in it.
var (
	probeInput = rand.New(rand.NewSource(1)).Perm(200000)
	probeBuf   = make([]int, len(probeInput))
)

// hostProbe sorts a fixed permutation three times back to back and
// returns the fastest in milliseconds: the fastest of three drops an
// interruption that hits one of them.
func hostProbe() float64 {
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		copy(probeBuf, probeInput)
		sort.Ints(probeBuf)
		best = math.Min(best, float64(time.Since(start))/float64(time.Millisecond))
	}
	return best
}
