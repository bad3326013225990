//go:build race

package exec

// raceEnabled gates zero-allocation assertions: under -race the
// arena's double-free guard allocates on every Get and Put.
const raceEnabled = true
