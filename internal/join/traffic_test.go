package join

import (
	"math/rand"
	"testing"

	"mmjoin/internal/mway"
	"mmjoin/internal/numa"
	"mmjoin/internal/radix"
	"mmjoin/internal/tuple"
)

// TestSortTrafficMatchesSortPassBytes holds the NUMA model's sort charge
// to the exec-stats charge of the same sort: for one dense 2^16
// partition, the traffic accountSortAndMergeTraffic records, less the
// merge join's one read, equals mway.SortPassBytes of the sorted
// partition.
func TestSortTrafficMatchesSortPassBytes(t *testing.T) {
	const n = 1 << 16
	rel := make(tuple.Relation, n)
	for i, k := range rand.New(rand.NewSource(1)).Perm(n) {
		rel[i] = tuple.Tuple{Key: tuple.Key(k), Payload: tuple.Payload(i)}
	}
	p := radix.PartitionGlobal(rel, 0, 1, true)
	sorted := mway.Sort(p.Part(0))
	o := Options{Threads: 1, Topology: numa.PaperTopology()}
	o.Traffic = numa.NewTraffic(o.Topology)
	accountSortAndMergeTraffic(&o, p, []tuple.Relation{sorted})

	got := o.Traffic.Local() + o.Traffic.Remote() - n*tuple.Bytes
	want := mway.SortPassBytes(sorted)
	if got != want {
		t.Fatalf("traffic model charged the sort %d bytes, SortPassBytes %d", got, want)
	}
	// Dense keys below 2^16 differ in two of the four digits: a
	// histogram read plus two read + write passes.
	if want != 5*n*tuple.Bytes {
		t.Fatalf("SortPassBytes = %d, want %d", want, 5*n*tuple.Bytes)
	}
}
