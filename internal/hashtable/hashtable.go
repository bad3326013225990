// Package hashtable implements the six hash-table designs the thirteen
// join algorithms of Schuh et al. (SIGMOD 2016) and their ablations are
// built on:
//
//   - ChainedTable: bucket chaining with in-bucket latches and tuples and
//     locks in a single array, following the cache-efficient layout of
//     Balkesen et al. (ICDE 2013). Used by PRB and PRO.
//   - LinearTable: a lock-free linear-probing table synchronized with
//     compare-and-swap, following Lang et al. (IMDM 2013). Used by NOP,
//     PRL, CPRL and the iS variants.
//   - CHT: the Concise Hash Table of Barber et al. (PVLDB 2014): a
//     bitmap with interleaved population counts over a dense tuple
//     array, bulk-loaded once. Used by CHTJ.
//   - ArrayTable: a plain payload array indexed by key for dense
//     domains. Used by NOPA, PRA, CPRA.
//   - RobinHoodTable: linear probing with Robin Hood displacement
//     (Richter et al., PVLDB 2016). An ablation and a cached-table
//     design next to LinearTable.
//   - SparseTable: a dynamic sibling of the CHT modeled on the Google
//     sparse hash map, with per-group bitmaps over dense slices. An
//     ablation and a cached-table design next to the CHT.
//
// The hashing tables take a hashfn.Hash value (its zero value, identity,
// is the paper's default) and are sized to powers of two so the hash
// reduces with a mask. Each design has one constructor; a nil arena
// means the heap.
package hashtable

import (
	"fmt"

	"mmjoin/internal/tuple"
)

// Table is the common read API of all six designs; the write/build APIs
// differ by design (CAS inserts, latched inserts, bulk loads) and are
// concrete methods. Join algorithms use the concrete types; the interface
// exists so that correctness tests and the advisor example can treat all
// designs uniformly.
type Table interface {
	// Lookup returns the payload stored for key. For tables holding
	// duplicate keys it returns one arbitrary match; the paper's
	// workloads have unique build keys, making Lookup exact.
	Lookup(k tuple.Key) (tuple.Payload, bool)
	// Len returns the number of tuples stored.
	Len() int
	// SizeBytes returns the memory footprint of the structure, the
	// metric studied by Barber et al.
	SizeBytes() int64
}

// NextPow2 returns the smallest power of two >= n (minimum 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func checkCapacity(n int) {
	if n < 0 {
		panic(fmt.Sprintf("hashtable: negative capacity %d", n))
	}
}
