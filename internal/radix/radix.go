// Package radix implements the parallel radix-partitioning machinery the
// PR*- and CPR*-joins of Schuh et al. (SIGMOD 2016) are built on:
//
//   - histogram-based single-pass partitioning with a global histogram
//     and precomputed output ranges (Figure 4(a): scan → histogram →
//     barrier → scatter), used by PRO and descendants;
//   - two-pass partitioning (PRB's 7+7-bit scheme from Balkesen et al.);
//   - software write-combine buffers (SWWCB, Algorithm 1) that flush
//     whole cache lines to keep TLB pressure at one page per buffer;
//   - chunked partitioning (Figure 4(c)): each thread partitions its
//     chunk locally with no global histogram and no remote writes, the
//     core of the CPRL/CPRA contribution;
//   - the Equation (1) predictor for the optimal number of radix bits.
//
// Partitioning always uses the low `bits` bits of the key, matching the
// dense-key workloads of the study.
//
// All parallel phases run on an exec.Pool: the *Exec entry points take
// a pool (carrying context, worker count, and buffer arena) and return
// the pool's ctx.Err() on cancellation; the legacy signatures wrap them
// with a background pool.
package radix

import (
	"context"

	"mmjoin/internal/exec"
	"mmjoin/internal/tuple"
)

// Partitioned is a relation scattered into 2^bits partitions. Each
// partition occupies one contiguous range of Data; the ranges need not
// be ordered by partition number (two-pass partitioning orders them by
// (coarse, fine) instead).
type Partitioned struct {
	// Data holds all partitions.
	Data tuple.Relation
	// starts/ends give partition p as Data[starts[p]:ends[p]].
	starts, ends []int
	// Bits is the number of radix bits used.
	Bits uint
}

// Parts returns the partition count.
func (p *Partitioned) Parts() int { return len(p.starts) }

// Part returns partition i as a sub-slice of Data.
func (p *Partitioned) Part(i int) tuple.Relation {
	return p.Data[p.starts[i]:p.ends[i]]
}

// PartLen returns the tuple count of partition i without slicing.
func (p *Partitioned) PartLen(i int) int { return p.ends[i] - p.starts[i] }

// Start returns the offset of partition i in Data. The NUMA placement
// model uses it to locate a partition's home node.
func (p *Partitioned) Start(i int) int { return p.starts[i] }

// Release returns the partition buffer to the arena. Fence metadata
// (Start, PartLen) stays valid; Part and Data must not be used
// afterwards. Callers that hand out Part slices (the join drivers) call
// this only after the join phase has fully drained.
func (p *Partitioned) Release(a *exec.Arena) {
	a.PutTuples(p.Data)
	p.Data = nil
}

// Histogram counts, for every radix partition, the tuples of rel that
// fall into it.
func Histogram(rel tuple.Relation, bits uint) []int {
	h := make([]int, 1<<bits)
	histogramInto(h, rel, bits)
	return h
}

// histogramInto accumulates the radix histogram of rel into h (len
// 2^bits, pre-zeroed).
//
//mmjoin:hotpath
func histogramInto(h []int, rel tuple.Relation, bits uint) {
	mask := tuple.Key(1<<bits - 1)
	for _, tp := range rel {
		h[tp.Key&mask]++
	}
}

// prefixFences turns a histogram into fence offsets (exclusive prefix
// sums with a final terminator).
func prefixFences(hist []int) []int {
	fences := make([]int, len(hist)+1)
	sum := 0
	for i, c := range hist {
		fences[i] = sum
		sum += c
	}
	fences[len(hist)] = sum
	return fences
}

// backgroundPool builds the pool behind the legacy non-context entry
// points.
func backgroundPool(threads int) *exec.Pool {
	return exec.NewPool(context.Background(), threads)
}

// PartitionGlobal is PartitionGlobalExec on a fresh background pool —
// the legacy entry point for callers outside the join drivers.
func PartitionGlobal(src tuple.Relation, bits uint, threads int, swwcb bool) *Partitioned {
	p, _ := PartitionGlobalExec(backgroundPool(threads), "partition", src, bits, swwcb)
	return p
}

// PartitionGlobalExec performs the one-pass parallel radix partitioning
// of PRO (Figure 4(a)) on the given pool: per-thread histograms over
// equal chunks, a merge into global per-thread output offsets, then a
// parallel scatter. With swwcb enabled the scatter goes through
// software write-combine buffers. Phases are recorded as
// label+"/histogram" and label+"/scatter"; on cancellation all buffers
// return to the arena and the pool's ctx.Err() is returned.
func PartitionGlobalExec(pool *exec.Pool, label string, src tuple.Relation, bits uint, swwcb bool) (*Partitioned, error) {
	threads := pool.Threads()
	arena := pool.Arena()
	parts := 1 << bits
	chunks := tuple.Chunks(len(src), threads)

	// Phase 1: local histograms.
	local := make([][]int, threads)
	releaseLocal := func() {
		for _, h := range local {
			arena.PutInts(h)
		}
	}
	err := pool.Run(label+"/histogram", func(w *exec.Worker) {
		h := arena.Ints(parts)
		c := chunks[w.ID]
		w.Morsels(c.Len(), func(begin, end int) {
			histogramInto(h, src[c.Begin+begin:c.Begin+end], bits)
			w.AddBytes(int64(end-begin) * tuple.Bytes)
		})
		local[w.ID] = h
	})
	if err != nil {
		releaseLocal()
		return nil, err
	}

	// Phase 2: merge into global fences and per-thread write cursors.
	// Thread t writes partition p at fences[p] + counts of earlier
	// threads for p, so the scatter needs no further synchronization.
	global := make([]int, parts)
	for _, l := range local {
		for p, c := range l {
			global[p] += c
		}
	}
	fences := prefixFences(global)
	cursors := make([][]int, threads)
	running := arena.Ints(parts)
	for t := 0; t < threads; t++ {
		cursors[t] = arena.Ints(parts)
		for p := 0; p < parts; p++ {
			cursors[t][p] = fences[p] + running[p]
			running[p] += local[t][p]
		}
	}
	arena.PutInts(running)
	releaseScratch := func() {
		releaseLocal()
		for _, c := range cursors {
			arena.PutInts(c)
		}
	}

	// Phase 3: scatter.
	dst := arena.Tuples(len(src))
	err = pool.Run(label+"/scatter", func(w *exec.Worker) {
		c := chunks[w.ID]
		scatterChunk(w, dst, src, c, 0, bits, cursors[w.ID], swwcb)
	})
	releaseScratch()
	if err != nil {
		arena.PutTuples(dst)
		return nil, err
	}
	return &Partitioned{Data: dst, starts: fences[:parts], ends: fences[1:], Bits: bits}, nil
}

// scatterChunk scatters one worker's chunk in morsel strides so
// cancellation is observed between strides; SWWCB state persists across
// strides and is flushed at the end.
func scatterChunk(w *exec.Worker, dst, src tuple.Relation, c tuple.Chunk, shift, bits uint, cursor []int, swwcb bool) {
	if swwcb {
		sc := newBufferedScatter(dst, shift, bits, cursor)
		w.Morsels(c.Len(), func(begin, end int) {
			sc.scatter(src[c.Begin+begin : c.Begin+end])
			w.AddBytes(2 * int64(end-begin) * tuple.Bytes) // read src + write dst
		})
		sc.flush()
		return
	}
	w.Morsels(c.Len(), func(begin, end int) {
		scatterDirect(dst, src[c.Begin+begin:c.Begin+end], shift, bits, cursor)
		w.AddBytes(2 * int64(end-begin) * tuple.Bytes)
	})
}

// scatterDirect writes each tuple straight to its output position — the
// PRB behaviour without software buffers. The partition of a tuple is
// bits [shift, shift+bits) of its key.
//
//mmjoin:hotpath
func scatterDirect(dst, chunk tuple.Relation, shift, bits uint, cursor []int) {
	mask := tuple.Key(1<<bits - 1)
	for _, tp := range chunk {
		p := (tp.Key >> shift) & mask
		dst[cursor[p]] = tp
		cursor[p]++
	}
}

// swwcb is one software write-combine buffer: a cache line worth of
// tuples staged locally before being flushed to the destination, per
// Algorithm 1 of the paper. Unaligned destination ranges are handled by
// shrinking the first flush to the next cache-line boundary, so the
// output needs no padding and partitions stay contiguous. The cache-line
// copy is the scalar stand-in for the original's non-temporal streaming
// stores (see DESIGN.md).
type swwcb struct {
	line [tuple.TuplesPerCacheLine]tuple.Tuple
	fill int // tuples currently staged
	dest int // output position of line[0]
	room int // tuples until the next flush boundary
}

// bufferedScatter carries the write-combine buffers of one worker
// across morsel strides: buffers stay filled between strides and only
// flush() forces the remainders out.
type bufferedScatter struct {
	dst         tuple.Relation
	bufs        []swwcb
	shift, bits uint
}

func newBufferedScatter(dst tuple.Relation, shift, bits uint, cursor []int) *bufferedScatter {
	bufs := make([]swwcb, 1<<bits)
	for p := range bufs {
		b := &bufs[p]
		b.dest = cursor[p]
		b.room = tuple.TuplesPerCacheLine - b.dest%tuple.TuplesPerCacheLine
	}
	return &bufferedScatter{dst: dst, bufs: bufs, shift: shift, bits: bits}
}

// scatter stages the chunk's tuples through the per-partition buffers,
// flushing whole cache lines as they fill. The masked buffer index
// keeps the hot loop free of bounds checks.
//
//mmjoin:hotpath
func (s *bufferedScatter) scatter(chunk tuple.Relation) {
	dst, bufs := s.dst, s.bufs
	mask := tuple.Key(1<<s.bits - 1)
	shift := s.shift
	for _, tp := range chunk {
		b := &bufs[(tp.Key>>shift)&mask]
		b.line[b.fill&(tuple.TuplesPerCacheLine-1)] = tp
		b.fill++
		if b.fill == b.room {
			copy(dst[b.dest:b.dest+b.fill], b.line[:b.fill])
			b.dest += b.fill
			b.fill = 0
			b.room = tuple.TuplesPerCacheLine
		}
	}
}

// flush writes out every buffer's staged remainder.
//
//mmjoin:hotpath
func (s *bufferedScatter) flush() {
	for p := range s.bufs {
		b := &s.bufs[p]
		if b.fill > 0 {
			copy(s.dst[b.dest:b.dest+b.fill], b.line[:b.fill])
		}
	}
}

// scatterBuffered scatters a whole chunk through write-combine buffers
// in one call (the single-stride form used by the second partitioning
// pass, where tasks are already morsel-sized).
func scatterBuffered(dst, chunk tuple.Relation, shift, bits uint, cursor []int) {
	s := newBufferedScatter(dst, shift, bits, cursor)
	s.scatter(chunk)
	s.flush()
}

// PartitionTwoPass is PartitionTwoPassExec on a fresh background pool.
func PartitionTwoPass(src tuple.Relation, bits1, bits2 uint, threads int, swwcb bool) *Partitioned {
	p, _ := PartitionTwoPassExec(backgroundPool(threads), "partition", src, bits1, bits2, swwcb)
	return p
}

// PartitionTwoPassExec performs PRB's two-pass radix partitioning: a
// global first pass over bits1 (the low bits), then each first-pass
// partition is repartitioned by the next bits2 bits as an independent
// task pulled from a shared queue (Section 3.1). The result is
// equivalent to a single pass over bits1+bits2 bits but never has more
// than 2^max(bits1,bits2) open write targets, the TLB-driven motivation
// of the design. The second pass is recorded as label+"/subpartition",
// with cancellation checked at every task pop.
func PartitionTwoPassExec(pool *exec.Pool, label string, src tuple.Relation, bits1, bits2 uint, swwcb bool) (*Partitioned, error) {
	arena := pool.Arena()
	first, err := PartitionGlobalExec(pool, label, src, bits1, swwcb)
	if err != nil {
		return nil, err
	}
	totalBits := bits1 + bits2
	parts := 1 << totalBits
	dst := arena.Tuples(len(src))
	subFences := make([][]int, 1<<bits1)

	// Second pass: each coarse partition is one task; workers pull tasks
	// from a shared queue and run a single-threaded histogram + scatter
	// within the coarse partition's range.
	err = pool.RunQueue(label+"/subpartition", exec.NewRange(1<<bits1), func(w *exec.Worker, c int) {
		part := first.Part(c)
		out := dst[first.starts[c]:first.ends[c]]
		subFences[c] = subPartition(out, part, bits1, bits2, swwcb)
		// histogram read + scatter read/write of the coarse partition
		w.AddBytes(3 * int64(len(part)) * tuple.Bytes)
	})
	first.Release(arena)
	if err != nil {
		arena.PutTuples(dst)
		return nil, err
	}

	// Partition v = fine<<bits1 | coarse lives at coarse's base plus the
	// fine-local fences.
	starts := make([]int, parts)
	ends := make([]int, parts)
	for c := 0; c < 1<<bits1; c++ {
		base := first.starts[c]
		for f := 0; f < 1<<bits2; f++ {
			v := f<<bits1 | c
			starts[v] = base + subFences[c][f]
			ends[v] = base + subFences[c][f+1]
		}
	}
	return &Partitioned{Data: dst, starts: starts, ends: ends, Bits: totalBits}, nil
}

// subPartition scatters one coarse partition into its 2^bits2
// sub-partitions inside out (same length as part) and returns the local
// fence offsets (len 2^bits2 + 1).
func subPartition(out, part tuple.Relation, bits1, bits2 uint, swwcb bool) []int {
	hist := make([]int, 1<<bits2)
	for _, tp := range part {
		hist[(tp.Key>>bits1)&tuple.Key(1<<bits2-1)]++
	}
	fences := prefixFences(hist)
	cursor := make([]int, 1<<bits2)
	copy(cursor, fences[:1<<bits2])
	if swwcb {
		scatterBuffered(out, part, bits1, bits2, cursor)
	} else {
		scatterDirect(out, part, bits1, bits2, cursor)
	}
	return fences
}
