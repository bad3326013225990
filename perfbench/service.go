package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"mmjoin/internal/datagen"
	"mmjoin/internal/join"
	"mmjoin/internal/server"
	"mmjoin/internal/tuple"
)

// svcShape sizes the service mix. Each client repeats a cycle of
// cycleLen queries: hot probes, except for two cold builds and one scan.
type svcShape struct {
	hot           int // hot build relation, cached in all six designs
	priv          int // each private build relation
	privPerClient int // private builds each client rotates over
	probe         int // tuples per small probe
	probeRels     int // distinct small probe relations
	scan          int // tuples per scan
	clients       int // closed-loop clients
}

const cycleLen = 64

type opKind int

const (
	opProbe opKind = iota
	opBuild
	opScan
)

// slotKind spreads one cycle's two builds and one scan evenly over it.
func slotKind(slot int) opKind {
	switch slot {
	case cycleLen / 4, 3 * cycleLen / 4:
		return opBuild
	case cycleLen / 2:
		return opScan
	}
	return opProbe
}

// svcData is the service mix's inputs and their expected answers.
type svcData struct {
	hot, scan     tuple.Relation
	probes        []tuple.Relation
	privs         []tuple.Relation
	hotWant       []answer   // per probe relation
	privWant      [][]answer // per private build, per probe relation
	scanWant      answer
	privPerClient int
}

func genService(sh svcShape, seed uint64) (*svcData, error) {
	w, err := datagen.Generate(datagen.Config{BuildSize: sh.hot, ProbeSize: sh.scan, Seed: seed})
	if err != nil {
		return nil, err
	}
	d := &svcData{hot: w.Build, scan: w.Probe, privPerClient: sh.privPerClient}
	hotIdx, err := newPKIndex(d.hot)
	if err != nil {
		return nil, err
	}
	d.scanWant = hotIdx.expect(d.scan)
	for j := 0; j < sh.probeRels; j++ {
		p := datagen.UniformRelation(sh.probe, sh.hot, seed^uint64(j+1)<<32)
		d.probes = append(d.probes, p)
		d.hotWant = append(d.hotWant, hotIdx.expect(p))
	}
	for b := 0; b < sh.clients*sh.privPerClient; b++ {
		pw, err := datagen.Generate(datagen.Config{BuildSize: sh.priv, Seed: seed ^ uint64(b+1)<<48})
		if err != nil {
			return nil, err
		}
		idx, err := newPKIndex(pw.Build)
		if err != nil {
			return nil, err
		}
		wants := make([]answer, len(d.probes))
		for j, p := range d.probes {
			wants[j] = idx.expect(p)
		}
		d.privs = append(d.privs, pw.Build)
		d.privWant = append(d.privWant, wants)
	}
	return d, nil
}

// openService starts an in-process server with off-heap tables and
// default threads and worker slots. The cache is sized from measured
// table footprints to hold the hot relation's six tables plus about two
// private builds, so every build query misses, builds, publishes and
// evicts while the hot tables stay resident.
func openService(ctx context.Context, d *svcData) (*server.Server, error) {
	var hotBytes int64
	for _, design := range join.TableDesigns() {
		n, err := tableBytes(ctx, d.hot, design)
		if err != nil {
			return nil, err
		}
		hotBytes += n
	}
	privBytes, err := tableBytes(ctx, d.privs[0], server.Config{}.Design)
	if err != nil {
		return nil, err
	}
	srv := server.Open(server.Config{OffHeap: true, CacheBytes: hotBytes + 5*privBytes/2})
	rels := map[string]tuple.Relation{"hot": d.hot, "scan": d.scan}
	for j, p := range d.probes {
		rels[probeName(j)] = p
	}
	for b, p := range d.privs {
		rels[privName(b)] = p
	}
	for name, rel := range rels {
		if err := srv.RegisterRelation(name, rel); err != nil {
			return nil, errors.Join(err, srv.Close())
		}
	}
	return srv, nil
}

func tableBytes(ctx context.Context, rel tuple.Relation, design join.TableDesign) (int64, error) {
	bt, err := join.BuildTable(ctx, rel, design, &join.Options{Threads: 1})
	if err != nil {
		return 0, err
	}
	defer bt.Release()
	return bt.SizeBytes(), nil
}

func probeName(j int) string { return fmt.Sprintf("probe%d", j) }
func privName(b int) string  { return fmt.Sprintf("build%d", b) }

// client is one closed-loop client's cursor and private samples.
type client struct {
	id             int
	nProbe, nBuild int

	probeMs, buildMs, scanMs []float64
	tableUs                  map[string][]float64 // hot probes' Result.Total by design
	overProbeUs, overBuildMs []float64
	hits, misses, shed, errs int
	// A traced run traces every other cycle; its traced queries feed
	// only these two, the untraced ones the samples above.
	tracedProbeMs []float64
	self          selfTimes
}

// query returns the query for one cycle slot and its expected answer.
func (c *client) query(d *svcData, slot int) (server.Query, answer, opKind) {
	designs := join.TableDesigns()
	switch kind := slotKind(slot); kind {
	case opBuild:
		b := c.id*d.privPerClient + c.nBuild%d.privPerClient
		j := c.nBuild % len(d.probes)
		c.nBuild++
		return server.Query{Build: privName(b), Probe: probeName(j)}, d.privWant[b][j], kind
	case opScan:
		return server.Query{Build: "hot", Probe: "scan", Design: join.DesignLinear.String()}, d.scanWant, kind
	default:
		design := designs[c.nProbe%len(designs)]
		j := (c.nProbe + c.id) % len(d.probes)
		c.nProbe++
		return server.Query{Build: "hot", Probe: probeName(j), Design: design.String()}, d.hotWant[j], kind
	}
}

// do issues one query and records it.
func (c *client) do(ctx context.Context, srv *server.Server, d *svcData, slot int, traced bool, t *tally) {
	q, want, kind := c.query(d, slot)
	q.Trace = traced
	t.attempted.Add(1)
	start := time.Now()
	resp, err := srv.Join(ctx, q)
	lat := time.Since(start)
	if err != nil {
		t.failed.Add(1)
		if errors.Is(err, server.ErrOverloaded) {
			c.shed++
		} else {
			c.errs++
		}
		fmt.Fprintf(os.Stderr, "perfbench: query %+v: %v\n", q, err)
		return
	}
	if !want.agrees(resp.Result) {
		t.failed.Add(1)
		t.wrong.Add(1)
		c.errs++
		fmt.Fprintf(os.Stderr, "perfbench: query %+v: wrong answer: %d matches, checksum %#x; want %d, %#x\n",
			q, resp.Result.Matches, resp.Result.Checksum, want.matches, want.checksum)
		return
	}
	if resp.CacheHit {
		c.hits++
	} else {
		c.misses++
	}
	if traced {
		c.self.add(resp.Spans)
		if kind == opProbe {
			c.tracedProbeMs = append(c.tracedProbeMs, ms(lat))
		}
		return
	}
	over := resp.Latency - resp.Result.Total
	switch kind {
	case opProbe:
		c.probeMs = append(c.probeMs, ms(lat))
		if c.tableUs == nil {
			c.tableUs = map[string][]float64{}
		}
		c.tableUs[q.Design] = append(c.tableUs[q.Design], us(resp.Result.Total))
		c.overProbeUs = append(c.overProbeUs, us(over))
	case opBuild:
		c.buildMs = append(c.buildMs, ms(lat))
		c.overBuildMs = append(c.overBuildMs, ms(over))
	case opScan:
		c.scanMs = append(c.scanMs, ms(lat))
	}
}

// service is one open server with its inputs and clients. Clients
// keep their cursors across the warm pass and the windows, so no
// private build is reused while it could still be cached.
type service struct {
	srv     *server.Server
	data    *svcData
	clients []*client
}

// startService generates the inputs, opens the server and runs the
// warm pass: one full cycle per client, one client after another, which
// fills the cache with the hot tables and the arena's free lists.
func startService(ctx context.Context, sh svcShape, seed uint64, t *tally) (*service, error) {
	d, err := genService(sh, seed)
	if err != nil {
		return nil, err
	}
	srv, err := openService(ctx, d)
	if err != nil {
		return nil, err
	}
	s := &service{srv: srv, data: d}
	for id := 0; id < sh.clients; id++ {
		c := &client{id: id}
		for slot := 0; slot < cycleLen; slot++ {
			c.do(ctx, srv, d, slot, false, t)
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// svcWindow is one closed-loop window's merged client samples.
type svcWindow struct {
	client
	elapsed time.Duration
	queries int
}

// serve drives the clients closed-loop for d, each sending its next
// query when the previous answer returns, and merges their samples.
// With tracing, every other cycle of each client is traced, so traced
// and untraced queries share the window and its host conditions.
func (s *service) serve(ctx context.Context, d time.Duration, tracing bool, t *tally) *svcWindow {
	var wg sync.WaitGroup
	start := time.Now()
	until := start.Add(d)
	for _, c := range s.clients {
		*c = client{id: c.id, nProbe: c.nProbe, nBuild: c.nBuild}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := 0; time.Now().Before(until); i++ {
				traced := tracing && (i/cycleLen)%2 == 1
				c.do(ctx, s.srv, s.data, i%cycleLen, traced, t)
			}
		}(c)
	}
	wg.Wait()
	w := &svcWindow{client: client{tableUs: map[string][]float64{}}, elapsed: time.Since(start)}
	for _, c := range s.clients {
		w.probeMs = append(w.probeMs, c.probeMs...)
		w.buildMs = append(w.buildMs, c.buildMs...)
		w.scanMs = append(w.scanMs, c.scanMs...)
		for design, xs := range c.tableUs {
			w.tableUs[design] = append(w.tableUs[design], xs...)
		}
		w.overProbeUs = append(w.overProbeUs, c.overProbeUs...)
		w.overBuildMs = append(w.overBuildMs, c.overBuildMs...)
		w.tracedProbeMs = append(w.tracedProbeMs, c.tracedProbeMs...)
		w.hits += c.hits
		w.misses += c.misses
		w.shed += c.shed
		w.errs += c.errs
		w.self.merge(c.self)
	}
	w.queries = w.hits + w.misses
	return w
}

func (w *svcWindow) qps() float64 { return float64(w.queries) / w.elapsed.Seconds() }

// endToEnd sets the service's per-operation metrics; quantiles come
// from the raw per-query samples. The probe tail is gated at p95, not
// p99: the slowest 1% of probes are those another process's CPU use
// stretched to milliseconds, so p99 follows the host's load more than
// the program (see README.md). p99 and the scans' p50, whose spread
// between runs passed the largest bound allowed, are per-layer metrics
// (layerMetrics).
func (w *svcWindow) endToEnd(m metrics) {
	m.set("qps", w.qps(), "1/s")
	m.set("probe_p50_ms", quantile(w.probeMs, 0.50), "ms")
	m.set("probe_p95_ms", quantile(w.probeMs, 0.95), "ms")
	m.set("build_p50_ms", median(w.buildMs), "ms")
}

// layerMetrics sets the server and cached-table per-layer metrics.
func (w *svcWindow) layerMetrics(m metrics) {
	for _, d := range join.TableDesigns() {
		m.set("table."+d.String()+".probe_us", median(w.tableUs[d.String()]), "us")
	}
	m.set("server.hit_rate", float64(w.hits)/float64(w.hits+w.misses), "ratio")
	m.set("server.probe_p99_ms", quantile(w.probeMs, 0.99), "ms")
	m.set("server.scan_p50_ms", median(w.scanMs), "ms")
	m.set("server.overhead_probe_us", median(w.overProbeUs), "us")
	m.set("server.overhead_build_ms", median(w.overBuildMs), "ms")
	m.set("server.shed", float64(w.shed), "count")
	m.set("server.failures", float64(w.errs), "count")
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
