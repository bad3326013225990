package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
	"mmjoin/internal/offheap"
	"mmjoin/internal/tuple"
)

// answer is the expected outcome of one join: the match count and the
// order-independent checksum join.Result reports (the sum over matches
// of buildPayload<<32 | probePayload).
type answer struct {
	matches  int64
	checksum uint64
}

func (a answer) agrees(res *join.Result) bool {
	return res.Matches == a.matches && res.Checksum == a.checksum
}

// pkIndex maps every key of a dense primary-key build relation (keys
// exactly [0, n)) to its payload. It shares no code with the join
// library: the benchmark's answers come from this index alone.
type pkIndex []tuple.Payload

func newPKIndex(build tuple.Relation) (pkIndex, error) {
	idx := make(pkIndex, len(build))
	seen := make([]bool, len(build))
	for _, tp := range build {
		k := int(tp.Key)
		if k >= len(build) || seen[k] {
			return nil, fmt.Errorf("build relation is not a dense primary key (key %d)", tp.Key)
		}
		seen[k] = true
		idx[k] = tp.Payload
	}
	return idx, nil
}

// expect is the inner equi-join of the indexed build side with probe.
func (ix pkIndex) expect(probe tuple.Relation) answer {
	var a answer
	for _, tp := range probe {
		if k := int(tp.Key); k < len(ix) {
			a.matches++
			a.checksum += uint64(ix[k])<<32 | uint64(tp.Payload)
		}
	}
	return a
}

// baseline is the process state a run must return to: no extra
// goroutines, off-heap regions or outstanding arena buffers.
type baseline struct {
	goroutines int
	regions    int64
	buffers    int64
}

func takeBaseline() baseline {
	return baseline{
		goroutines: runtime.NumGoroutine(),
		regions:    offheap.Outstanding(),
		buffers:    exec.Shared.Outstanding(),
	}
}

// check verifies the run left nothing behind, then removes the run's
// spill directory (which must already be empty).
func (b baseline) check(spillDir string) error {
	entries, err := os.ReadDir(spillDir)
	if err != nil {
		return fmt.Errorf("spill dir: %w", err)
	}
	if len(entries) != 0 {
		return fmt.Errorf("spill dir %s holds %d leftover entries", spillDir, len(entries))
	}
	if err := os.Remove(spillDir); err != nil {
		return fmt.Errorf("spill dir: %w", err)
	}
	if n := offheap.Outstanding(); n != b.regions {
		return fmt.Errorf("off-heap regions: %d outstanding, %d at start\n%s", n, b.regions, offheap.LeakReport(5))
	}
	if n := exec.Shared.Outstanding(); n != b.buffers {
		return fmt.Errorf("arena buffers: %d outstanding, %d at start", n, b.buffers)
	}
	// Workers are joined before a join returns; allow the runtime a
	// moment to retire goroutines that have returned but not exited.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > b.goroutines; {
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutines: %d running, %d at start", runtime.NumGoroutine(), b.goroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// resetPeakRSS returns free heap memory to the OS and restarts the
// process's peak-RSS count (VmHWM) from the current resident set, so
// peak_rss_mb covers the measured window and not the repeated set-ups.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS returns the process's peak resident set (VmHWM) in MiB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
