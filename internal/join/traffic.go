package join

import (
	"mmjoin/internal/mway"
	"mmjoin/internal/numa"
	"mmjoin/internal/radix"
	"mmjoin/internal/tuple"
)

// This file computes the NUMA byte traffic a join's access pattern
// generates on the modeled four-socket machine. The accounting is
// analytic and deterministic: it is derived from the same relation
// sizes, chunk boundaries, partition fences and task orders the real
// execution used, under the placement policies of Section 6 (inputs and
// partition buffers allocated in equal chunks over all nodes, worker w
// pinned chunk-affine via numa.Topology.NodeOfWorker, join task i
// executed by worker i mod threads). See DESIGN.md for why this
// substitution preserves the paper's NUMA behaviour.

// numaRegionFor places a relation of n tuples under the chunked policy.
func numaRegionFor(o *Options, n int) numa.Region {
	return numa.Place(o.Topology, numa.Chunked, int64(n)*tuple.Bytes, 0)
}

// accountGlobalPartitionTraffic charges one global partitioning pass
// over n tuples (times `passes`): every worker reads its chunk twice
// (histogram + scatter) from the chunk's home nodes and writes its chunk
// volume scattered across the whole output region — the remote-write
// pattern of Figure 4(b).
func accountGlobalPartitionTraffic(o *Options, n int, passes int) {
	if n == 0 {
		return
	}
	topo := o.Topology
	in := numaRegionFor(o, n)
	chunks := tuple.Chunks(n, o.Threads)
	// Output region node shares (chunked placement over same size).
	outShares := in.BytesPerNode(0, in.Size())
	for pass := 0; pass < passes; pass++ {
		for w := 0; w < o.Threads; w++ {
			node := topo.NodeOfWorker(w, o.Threads)
			c := chunks[w]
			if c.Len() == 0 {
				continue
			}
			lo, hi := int64(c.Begin)*tuple.Bytes, int64(c.End)*tuple.Bytes
			// Histogram read + scatter read.
			o.Traffic.AddReadRegion(node, in, lo, hi)
			o.Traffic.AddReadRegion(node, in, lo, hi)
			// Scatter writes: uniform keys spread the chunk over the
			// output region in proportion to each node's share.
			chunkBytes := hi - lo
			for m, share := range outShares {
				o.Traffic.AddWrite(node, m, chunkBytes*share/in.Size())
			}
		}
	}
}

// accountChunkedPartitionTraffic charges one chunked partitioning pass:
// reads as above, but writes stay inside the worker's own chunk range —
// the all-local write pattern of Figure 4(d).
func accountChunkedPartitionTraffic(o *Options, n int) {
	if n == 0 {
		return
	}
	topo := o.Topology
	in := numaRegionFor(o, n)
	chunks := tuple.Chunks(n, o.Threads)
	for w := 0; w < o.Threads; w++ {
		node := topo.NodeOfWorker(w, o.Threads)
		c := chunks[w]
		if c.Len() == 0 {
			continue
		}
		lo, hi := int64(c.Begin)*tuple.Bytes, int64(c.End)*tuple.Bytes
		o.Traffic.AddReadRegion(node, in, lo, hi)
		o.Traffic.AddReadRegion(node, in, lo, hi)
		o.Traffic.AddWriteRegion(node, in, lo, hi)
	}
}

// accountGlobalJoinTraffic charges the join phase of the PR* variants:
// task i (in queue order) runs on worker i mod threads and streams its
// contiguous build and probe partitions from wherever the chunked
// partition buffers put them.
func accountGlobalJoinTraffic(o *Options, order []int, pr, ps *radix.Partitioned, buildLen, probeLen int) {
	topo := o.Topology
	rRegion := numaRegionFor(o, buildLen)
	sRegion := numaRegionFor(o, probeLen)
	for i, p := range order {
		node := topo.NodeOfWorker(i, o.Threads)
		if n := pr.PartLen(p); n > 0 {
			lo := int64(pr.Start(p)) * tuple.Bytes
			o.Traffic.AddReadRegion(node, rRegion, lo, lo+int64(n)*tuple.Bytes)
		}
		if n := ps.PartLen(p); n > 0 {
			lo := int64(ps.Start(p)) * tuple.Bytes
			o.Traffic.AddReadRegion(node, sRegion, lo, lo+int64(n)*tuple.Bytes)
		}
	}
}

// accountChunkedJoinTraffic charges the join phase of the CPR* variants:
// every task gathers one fragment per chunk from all nodes — large
// sequential remote reads instead of the partition phase's random remote
// writes (Section 6.1).
func accountChunkedJoinTraffic(o *Options, order []int, pr, ps *radix.ChunkedPartitioned) {
	topo := o.Topology
	rRegion := numaRegionFor(o, len(pr.Data))
	sRegion := numaRegionFor(o, len(ps.Data))
	for i, p := range order {
		node := topo.NodeOfWorker(i, o.Threads)
		for ci := range pr.Chunks {
			lo, hi := int64(pr.Fences[ci][p])*tuple.Bytes, int64(pr.Fences[ci][p+1])*tuple.Bytes
			if hi > lo {
				o.Traffic.AddReadRegion(node, rRegion, lo, hi)
			}
		}
		for ci := range ps.Chunks {
			lo, hi := int64(ps.Fences[ci][p])*tuple.Bytes, int64(ps.Fences[ci][p+1])*tuple.Bytes
			if hi > lo {
				o.Traffic.AddReadRegion(node, sRegion, lo, hi)
			}
		}
	}
}

// accountSortAndMergeTraffic charges MWAY's sort phase: each thread
// streams its partition through the passes mway.Sort made on it, the
// count mway.SortPassBytes charges (a histogram read, then a read and a
// write per key digit the sorted partition's keys do not all share),
// plus the final merge-join read, all against the partition's home
// range. sorted[w] is partition w after the sort.
func accountSortAndMergeTraffic(o *Options, p *radix.Partitioned, sorted []tuple.Relation) {
	topo := o.Topology
	region := numaRegionFor(o, len(p.Data))
	for w := 0; w < p.Parts(); w++ {
		node := topo.NodeOfWorker(w, o.Threads)
		n := p.PartLen(w)
		if n == 0 {
			continue
		}
		lo := int64(p.Start(w)) * tuple.Bytes
		hi := lo + int64(n)*tuple.Bytes
		if n > 1 {
			o.Traffic.AddReadRegion(node, region, lo, hi) // histogram
		}
		for pass := mway.SortPasses(sorted[w]); pass > 0; pass-- {
			o.Traffic.AddReadRegion(node, region, lo, hi)
			o.Traffic.AddWriteRegion(node, region, lo, hi)
		}
		o.Traffic.AddReadRegion(node, region, lo, hi)
	}
}

// accountNoPartitionTraffic charges the NUMA traffic model of a
// no-partitioning join: every worker streams its input chunks from their
// chunked home regions and performs one cache-line-sized random access
// into the page-interleaved global table per build tuple, and
// perProbeLines per probe tuple (two for CHTJ).
func accountNoPartitionTraffic(o *Options, buildLen, probeLen int, perProbeLines int) {
	topo := o.Topology
	buildRegion := numaRegionFor(o, buildLen)
	probeRegion := numaRegionFor(o, probeLen)
	buildChunks := tuple.Chunks(buildLen, o.Threads)
	probeChunks := tuple.Chunks(probeLen, o.Threads)
	for w := 0; w < o.Threads; w++ {
		node := topo.NodeOfWorker(w, o.Threads)
		bc, pc := buildChunks[w], probeChunks[w]
		if bc.Len() > 0 {
			o.Traffic.AddReadRegion(node, buildRegion, int64(bc.Begin)*tuple.Bytes, int64(bc.End)*tuple.Bytes)
		}
		if pc.Len() > 0 {
			o.Traffic.AddReadRegion(node, probeRegion, int64(pc.Begin)*tuple.Bytes, int64(pc.End)*tuple.Bytes)
		}
		// Random table accesses hit the interleaved allocation evenly:
		// one line written per build tuple, perProbeLines read per
		// probe tuple.
		perNodeBuild := int64(bc.Len()) * tuple.CacheLineBytes / int64(topo.Nodes)
		perNodeProbe := int64(pc.Len()) * tuple.CacheLineBytes * int64(perProbeLines) / int64(topo.Nodes)
		for m := 0; m < topo.Nodes; m++ {
			o.Traffic.AddWrite(node, m, perNodeBuild)
			o.Traffic.AddRead(node, m, perNodeProbe)
		}
	}
}
