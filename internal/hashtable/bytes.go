package hashtable

import "mmjoin/internal/tuple"

// Per-operation byte-traffic model of the table variants: the expected
// number of cache lines one build insert or one probe lookup touches,
// in bytes. These are the coefficients behind the paper's bandwidth
// arguments (Section 5's "bytes per output tuple"), used by the join
// drivers to attribute hot-loop traffic to the execution layer's
// per-phase byte counters (exec.Worker.AddBytes). They deliberately
// model the common case — one line for an open-addressing hit, bucket
// line plus overflow line for chaining — rather than tail behaviour.
const (
	// ChainedOpBytes: the bucket header line plus, on average, one
	// chased overflow line.
	ChainedOpBytes = 2 * tuple.CacheLineBytes
	// LinearOpBytes: one line covers the short probe sequences of a
	// half-full linear table.
	LinearOpBytes = tuple.CacheLineBytes
	// ArrayOpBytes: a single positional access.
	ArrayOpBytes = tuple.CacheLineBytes
	// CHTOpBytes: the bitmap word's line plus the dense payload line.
	CHTOpBytes = 2 * tuple.CacheLineBytes
)
