// Package server is a long-running multi-tenant join service over the
// Table 2 algorithms: many concurrent queries join registered relations
// under per-query deadlines, an admission controller that bounds the
// aggregate modeled memory footprint (shedding load with ErrOverloaded
// instead of queueing without bound), a CPU gate that makes concurrent
// executions share worker slots fairly (exec.Gate), and a shared
// build-side cache keyed by relation fingerprint so the build phase of
// a hot relation is paid once and later queries run probe-only.
//
// The package exists because the rest of the repository is built around
// single-query assumptions — one pool, one tracer, one arena, one table
// per execution — and a service breaks every one of them. The invariants
// it layers on top:
//
//   - Memory: admission reserves 16 B per build tuple (the
//     join.Options.MemoryBudget model of DESIGN.md §13) for the duration
//     of a query's build; ready cached tables are owned by the cache and
//     bounded separately by Config.CacheBytes, so resident table bytes
//     never exceed MemoryBudget + CacheBytes.
//   - CPU: every query's pool shares one exec.Gate of
//     Config.WorkerSlots slots, yielding at morsel boundaries, so a
//     huge scan cannot starve small probes for more than one morsel.
//   - Tables: cache entries are refcounted; probes pin them, eviction
//     removes an entry from the index immediately but its (possibly
//     off-heap) storage is released through join.BuiltTable.Release
//     only when the refcount reaches zero — never under a live probe.
//   - Tracing: each query that asks for spans gets its own
//     trace.Tracer bracketed by Acquire, so overlapping queries cannot
//     interleave timelines (trace enforces the bracket by panicking).
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
	"mmjoin/internal/trace"
	"mmjoin/internal/tuple"
)

// Sentinel errors a caller can program against.
var (
	// ErrOverloaded is returned instead of queueing a query without
	// bound: the admission queue is full or the admission wait budget
	// expired. The caller should back off and retry.
	ErrOverloaded = errors.New("server: overloaded")
	// ErrClosed is returned for queries after Close.
	ErrClosed = errors.New("server: closed")
	// ErrUnknownRelation wraps the name of an unregistered relation.
	ErrUnknownRelation = errors.New("server: unknown relation")
)

// footprintBytes is the modeled in-flight memory of building a join
// over buildLen tuples: the 16 B/build-tuple accounting rule shared
// with join.Options.MemoryBudget (DESIGN.md §13).
func footprintBytes(buildLen int) int64 { return 16 * int64(buildLen) }

// Config sizes one Server. The zero value is usable: every field has a
// production-shaped default.
type Config struct {
	// Threads is the default per-query worker count (0 = GOMAXPROCS).
	Threads int
	// WorkerSlots is the gate's CPU slot count shared by all concurrent
	// queries (0 = GOMAXPROCS). Aggregate running workers never exceed
	// it; excess workers park on the gate and get slots yielded to them
	// at morsel boundaries.
	WorkerSlots int
	// MemoryBudget bounds the aggregate modeled footprint of admitted
	// queries, in bytes (0 = 256 MiB). A single query larger than the
	// budget is clamped to the whole budget (it runs alone).
	MemoryBudget int64
	// MaxQueued bounds how many queries may wait for admission; beyond
	// it queries shed immediately with ErrOverloaded (0 = 64).
	MaxQueued int
	// AdmitWait bounds how long a query waits for admission before
	// shedding with ErrOverloaded (0 = 100ms; <0 = wait for ctx only).
	AdmitWait time.Duration
	// CacheBytes bounds the build cache's resident table storage, in
	// bytes of actual table footprint (0 = 256 MiB). LRU-by-bytes.
	CacheBytes int64
	// DefaultDeadline is applied to queries that carry none (0 = none).
	DefaultDeadline time.Duration
	// OffHeap places table storage in GC-free off-heap regions (the
	// server always uses a private arena so Close can assert balance).
	OffHeap bool
	// Design is the default cached table design (zero = DesignChained).
	Design join.TableDesign
}

func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.WorkerSlots <= 0 {
		c.WorkerSlots = runtime.GOMAXPROCS(0)
	}
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 256 << 20
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 64
	}
	if c.AdmitWait == 0 {
		c.AdmitWait = 100 * time.Millisecond
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	return c
}

// registeredRelation is one named relation plus its content fingerprint
// (computed once at registration — the cache key half that makes two
// registrations of identical content share cached tables).
type registeredRelation struct {
	rel tuple.Relation
	fp  uint64
}

// Server is the join service. All methods are safe for concurrent use.
type Server struct {
	cfg   Config
	gate  *exec.Gate
	arena *exec.Arena
	adm   *admission
	cache *buildCache
	met   *metrics

	mu     sync.RWMutex
	rels   map[string]registeredRelation
	closed bool
	wg     sync.WaitGroup // in-flight queries
}

// Open starts a server. Close releases everything it owns.
func Open(cfg Config) *Server {
	cfg = cfg.withDefaults()
	var arena *exec.Arena
	if cfg.OffHeap {
		arena = exec.NewArenaOffHeap()
	} else {
		arena = exec.NewArena()
	}
	return &Server{
		cfg:   cfg,
		gate:  exec.NewGate(cfg.WorkerSlots),
		arena: arena,
		adm:   newAdmission(cfg.MemoryBudget, cfg.MaxQueued, cfg.AdmitWait),
		cache: newBuildCache(cfg.CacheBytes),
		met:   &metrics{},
	}
}

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// RegisterRelation makes rel joinable under name, replacing any
// previous registration. The relation is fingerprinted here; the caller
// must not mutate it afterwards (the server and its cache alias it).
func (s *Server) RegisterRelation(name string, rel tuple.Relation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.rels == nil {
		s.rels = make(map[string]registeredRelation)
	}
	s.rels[name] = registeredRelation{rel: rel, fp: rel.Fingerprint()}
	return nil
}

// RelationInfo describes one registered relation.
type RelationInfo struct {
	Name        string `json:"name"`
	Tuples      int    `json:"tuples"`
	Fingerprint uint64 `json:"fingerprint"`
}

// Relations lists the registered relations (order unspecified).
func (s *Server) Relations() []RelationInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]RelationInfo, 0, len(s.rels))
	for name, r := range s.rels {
		out = append(out, RelationInfo{Name: name, Tuples: len(r.rel), Fingerprint: r.fp})
	}
	return out
}

// Query is one join request against registered relations.
type Query struct {
	// Build and Probe name the registered build and probe relations.
	Build string `json:"build"`
	Probe string `json:"probe"`
	// Algorithm forces a fused Table 2 algorithm (e.g. "CPRL"); empty
	// selects the cached-table fast path when the query is cacheable
	// (inner join, null-free keys, cache enabled) and "NOP" otherwise.
	Algorithm string `json:"algorithm,omitempty"`
	// Design overrides the cached table design by wire name
	// ("chained", "linear", "robinhood", "array", "cht", "sparse");
	// empty uses the server default.
	Design string `json:"design,omitempty"`
	// Kind selects the join variant; non-inner kinds always run fused.
	Kind join.Kind `json:"kind,omitempty"`
	// NullableKeys declares null-keyed inputs (forces the fused path).
	NullableKeys bool `json:"nullable_keys,omitempty"`
	// Threads overrides the per-query worker count (0 = server default).
	Threads int `json:"threads,omitempty"`
	// Deadline bounds the query end to end (0 = server default; the
	// query returns context.DeadlineExceeded when it expires mid-run).
	Deadline time.Duration `json:"deadline,omitempty"`
	// NoCache bypasses the build cache (cold-path measurements).
	NoCache bool `json:"no_cache,omitempty"`
	// Trace records this query on its own trace.Tracer and returns the
	// spans in Response.Spans.
	Trace bool `json:"trace,omitempty"`
	// phaseHook is a test seam: invoked with each execution phase name,
	// like join.Options.PhaseHook.
	phaseHook func(phase string)
}

// Response is one query's outcome.
type Response struct {
	// Result is the join result (matches, checksum, phase times, stats).
	Result *join.Result `json:"result"`
	// CacheHit reports whether the build side came from the cache
	// (including waiting on a build another query started).
	CacheHit bool `json:"cache_hit"`
	// Latency is the end-to-end service time, admission wait included.
	Latency time.Duration `json:"latency"`
	// Spans holds the query's private trace when Query.Trace was set.
	Spans []trace.Span `json:"spans,omitempty"`
}

// Join runs one query. It is the service entry point: resolve
// relations, apply the deadline, admit (or shed), then run either the
// cached probe-only fast path or a fused algorithm. Cancellation and
// deadline expiry propagate to the execution layer's morsel boundaries,
// so workers stop within one morsel.
func (s *Server) Join(ctx context.Context, q Query) (*Response, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	build, okB := s.rels[q.Build]
	probe, okP := s.rels[q.Probe]
	if okB && okP {
		s.wg.Add(1)
	}
	s.mu.RUnlock()
	if !okB {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRelation, q.Build)
	}
	if !okP {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRelation, q.Probe)
	}
	defer s.wg.Done()

	deadline := q.Deadline
	if deadline == 0 {
		deadline = s.cfg.DefaultDeadline
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	design := s.cfg.Design
	if q.Design != "" {
		var err error
		design, err = join.ParseTableDesign(q.Design)
		if err != nil {
			return nil, err
		}
	}
	threads := q.Threads
	if threads <= 0 {
		threads = s.cfg.Threads
	}
	opts := &join.Options{
		Threads:      threads,
		Arena:        s.arena,
		Gate:         s.gate,
		Kind:         q.Kind,
		NullableKeys: q.NullableKeys,
		PhaseHook:    q.phaseHook,
	}
	var tr *trace.Tracer
	var trRelease func()
	if q.Trace {
		// A fresh tracer per query is the isolation contract: two
		// overlapping traced queries never share a timeline. Acquire
		// arms trace's deterministic reuse guard for the duration.
		tr = trace.New()
		trRelease = tr.Acquire()
		opts.Tracer = tr
	}

	cacheable := q.Algorithm == "" && q.Kind == join.Inner && !q.NullableKeys && !q.NoCache
	start := time.Now()
	var res *join.Result
	var hit bool
	var err error
	if cacheable {
		res, hit, err = s.cachedJoin(ctx, build, probe, design, opts)
	} else {
		res, err = s.fusedJoin(ctx, build, probe, q.Algorithm, opts)
	}
	latency := time.Since(start)
	s.met.observe(latency, cacheable, hit, err)
	if tr != nil {
		trRelease()
	}
	if err != nil {
		return nil, err
	}
	resp := &Response{Result: res, CacheHit: hit, Latency: latency}
	if tr != nil {
		resp.Spans = tr.Spans()
	}
	return resp, nil
}

// cachedJoin is the fingerprint-keyed fast path: pin (or become the
// builder of) the cached table, then run probe-only. The second return
// reports a cache hit.
func (s *Server) cachedJoin(ctx context.Context, build, probe registeredRelation, design join.TableDesign, opts *join.Options) (*join.Result, bool, error) {
	e, leader := s.cache.pin(cacheKey{fp: build.fp, design: design})
	defer s.cache.unpin(e)
	if leader {
		// Cold: reserve the build footprint, build, publish, probe. The
		// reservation is released when the build phase's transient
		// memory dies; the finished table is owned (and bounded) by the
		// cache from publish onwards.
		release, err := s.adm.admit(ctx, footprintBytes(len(build.rel)))
		if err != nil {
			s.cache.fail(e, err)
			return nil, false, err
		}
		bt, err := join.BuildTable(ctx, build.rel, design, opts)
		if err != nil {
			release()
			s.cache.fail(e, err)
			return nil, false, err
		}
		s.cache.publish(e, bt)
		release()
		res, err := join.ProbeTable(ctx, bt, probe.rel, opts)
		return res, false, err
	}
	// Warm (or warming): wait for the table, then probe. The pin taken
	// above guarantees the storage outlives the probe even if the entry
	// is evicted meanwhile.
	select {
	case <-e.ready:
	case <-ctx.Done():
		return nil, true, ctx.Err()
	}
	if e.err != nil {
		return nil, true, e.err
	}
	res, err := join.ProbeTable(ctx, e.bt, probe.rel, opts)
	return res, true, err
}

// fusedJoin runs a full Table 2 algorithm under admission (the
// non-cacheable path: forced algorithms, non-inner kinds, nullable
// keys, NoCache).
func (s *Server) fusedJoin(ctx context.Context, build, probe registeredRelation, algorithm string, opts *join.Options) (*join.Result, error) {
	release, err := s.adm.admit(ctx, footprintBytes(len(build.rel)))
	if err != nil {
		return nil, err
	}
	defer release()
	if algorithm == "" {
		algorithm = "NOP"
	}
	alg, err := join.New(algorithm)
	if err != nil {
		return nil, err
	}
	return alg.RunContext(ctx, build.rel, probe.rel, opts)
}

// FlushCache evicts every cached table not currently pinned and
// returns how many entries were dropped (cold-path measurements).
func (s *Server) FlushCache() int { return s.cache.flush() }

// Close drains in-flight queries, releases every cached table, and
// destroys the private arena (returning off-heap regions to the OS).
// After Close the offheap region balance is back to its pre-Open level
// — the leak assertion TestConcurrentQueriesStress and the perfbench
// svc-mix workload run.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
	s.cache.flush()
	if out := s.arena.Outstanding(); out != 0 {
		s.arena.Destroy()
		return fmt.Errorf("server: arena imbalance at close: %d buffers outstanding", out)
	}
	s.arena.Destroy()
	return nil
}
