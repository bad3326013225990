package hashtable

import (
	"unsafe"
)

// This file holds the reinterpretation helpers behind the tables'
// arena-backed storage (a constructor given a non-nil arena). The arena
// hands out uint32 / uint64 / tuple buffers — possibly mmap-backed,
// outside the Go heap — and the tables view them as their own element
// types. Every viewed type is pointer-free (uint8, chtGroup,
// chainedBucket, tuple.Tuple), which is what makes off-heap placement
// legal: the collector never scans these regions, so a stored Go
// pointer would be invisible to it and its referent collected
// underneath the table. The word alignment of the source buffers (4 or
// 8 bytes) meets or exceeds every target type's requirement.

// bytesFrom reinterprets a uint32 arena buffer as n bytes; the buffer
// must hold at least (n+3)/4 words.
func bytesFrom(raw []uint32, n int) []uint8 {
	p := (*uint8)(unsafe.Pointer(unsafe.SliceData(raw)))
	return unsafe.Slice(p, n)
}

// groupsFrom reinterprets a uint64 arena buffer as n CHT groups (one
// 8-byte bitmap+prefix pair per word).
func groupsFrom(raw []uint64, n int) []chtGroup {
	p := (*chtGroup)(unsafe.Pointer(unsafe.SliceData(raw)))
	return unsafe.Slice(p, n)
}
