package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"cloudiq"
	"cloudiq/internal/cloudcost"
	"cloudiq/tpch"
)

// workload is one benchmark configuration. Why each exists, and which layer
// each is built to stress, is in README.md.
type workload struct {
	name       string
	cacheBytes int64 // buffer manager budget (the stored data is ~3.3 MB)
	ocmBytes   int64 // OCM SSD capacity; 0 runs without an OCM
	streams    int   // closed-loop TPC-H query clients
	// minRounds is the number of whole rounds the timed phase runs even
	// when its time is up: Q1–Q22 permutations per TPC-H stream, bulk rounds
	// in ingest_mixed. Runs end on round boundaries, so every query type
	// contributes the same number of samples and the latency percentiles
	// cannot shift between clusters of query types from run to run.
	minRounds int
	// tailPct is the query_tail_ms percentile. With minRounds rounds it
	// leaves at least 10 samples beyond it, and it falls inside the
	// latency cluster of one query type.
	tailPct float64
	// commitTailPct is the commit_tail_ms percentile. ingest_mixed stops at
	// p75: now and then the deletes of a dropped copy fall to the next
	// trickle commit, which holds the trickle client for up to 0.6 s, so
	// the share of a run's commits caught in such a stall varies from 0 to
	// over 5% (driver.lateness_ms_max shows it).
	commitTailPct float64
	ingest        bool // ingest_mixed: trickle client plus bulk-load client
}

// The TPC-H workloads' commit probe makes minCommits commits; ingest_mixed's
// trickle client makes 20 a second for the whole phase.
const minCommits = 400

var workloads = map[string]workload{
	"tpch_cold": {name: "tpch_cold", cacheBytes: 512 << 10, streams: 1, minRounds: 5,
		tailPct: 90, commitTailPct: 90},
	"tpch_warm": {name: "tpch_warm", cacheBytes: 16 << 20, streams: 2, minRounds: 12,
		tailPct: 98, commitTailPct: 90},
	"ingest_mixed": {name: "ingest_mixed", cacheBytes: 2 << 20, ocmBytes: 16 << 20, minRounds: 14,
		tailPct: 75, commitTailPct: 75, ingest: true},
}

// clients is the number of client goroutines the workload runs.
func (w workload) clients() int {
	if w.ingest {
		return 2 // trickle client and bulk client
	}
	return w.streams
}

// queries lists the TPC-H queries the workload runs and checks.
func (w workload) queries() []int {
	if w.ingest {
		return []int{1, 6}
	}
	qs := make([]int, 22)
	for i := range qs {
		qs[i] = i + 1
	}
	return qs
}

// querySample is one timed tpch.Conn.Query call.
type querySample struct {
	q   int
	lat time.Duration
}

// phase is what one timed phase measured.
type phase struct {
	elapsed time.Duration
	queries []querySample
	commits []time.Duration // trickle Insert+Commit, from the scheduled send time

	attempted, failed int64
	firstErr          error

	// Timed calls into the engine's public surface.
	lateness      []time.Duration // trickle send time minus scheduled time
	trickleInsert time.Duration   // inside Tx.Insert
	trickleRows   int64           // acknowledged trickle rows
	trickleRaw    int64           // their size as '|'-separated input
	loads         int
	loadRows      int64
	loadInput     int64
	loadCall      time.Duration // inside cloudiq.Load
	bulkCommit    time.Duration // inside the Commit after a Load
	compact       time.Duration // inside CompactDelta
	compacted     int64
	busy          int64
	liveMax       int
}

func (ph *phase) ops() int64 {
	return int64(len(ph.queries)+len(ph.commits)) + int64(ph.loads)
}

// fail counts one attempted operation and whether it failed.
func (ph *phase) fail(err error) {
	ph.attempted++
	if err != nil {
		ph.failed++
		if ph.firstErr == nil {
			ph.firstErr = err
		}
	}
}

// merge adds another client's operation counts to ph.
func (ph *phase) merge(o *phase) {
	ph.attempted += o.attempted
	ph.failed += o.failed
	if ph.firstErr == nil {
		ph.firstErr = o.firstErr
	}
}

// checkQuery runs one query, times it and compares its answer with the
// reference.
func (ph *phase) checkQuery(ctx context.Context, e *env, conn *tpch.Conn, q int) {
	qctx, end := e.probe.span(ctx, "iqperf.query")
	start := time.Now()
	out, err := conn.Query(qctx, q)
	lat := time.Since(start)
	end()
	if err == nil && fingerprint(out) != e.ref[q] {
		err = fmt.Errorf("Q%d: answer differs from the reference", q)
	}
	ph.fail(err)
	if err == nil {
		ph.queries = append(ph.queries, querySample{q, lat})
	}
}

// execute sets the workload up, runs its timed phase and derives the
// metrics. Untraced runs report end-to-end metrics, traced runs per-layer
// ones.
func execute(ctx context.Context, w workload, o opts) (*result, error) {
	if n := runtime.NumCPU(); w.clients() > n {
		return nil, fmt.Errorf("%d client goroutines exceed the %d CPUs", w.clients(), n)
	}
	var p *probe
	if o.traced {
		p = newProbe()
	}
	var setupS, loadRate []float64
	var e *env
	for i := 0; i < o.setupCount(); i++ {
		if e != nil {
			e.close(ctx)
			e = nil
			runtime.GC() // each set-up starts from the same heap
		}
		start := time.Now()
		var err error
		if e, err = setup(ctx, w, o.seed, p); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		loadRate = append(loadRate, float64(e.loadRows)/e.loadTime.Seconds())
	}
	defer e.close(ctx)
	if o.tamper {
		e.ref[w.queries()[0]] ^= 1
	}
	runtime.GC() // no set-up garbage is collected in the timed phase
	// peak_rss_mb is the high-water mark of the set-ups: generating,
	// loading and caching the data. The timed phases add a peak that
	// depends on which queries' intermediates meet one GC cycle, which on
	// tpch_warm moved the whole-run figure between 126 and 165 MB.
	_, peakRSS := rusage()

	var before map[string]float64
	if p != nil {
		before = p.counters(e)
		p.spans.begin()
	}
	costBefore := e.requestCost()
	var ph *phase
	var err error
	if w.ingest {
		ph, err = runIngest(ctx, e, o)
	} else {
		ph = runQueries(ctx, e, w, o)
	}
	if err != nil {
		return nil, err
	}
	cost := e.requestCost() - costBefore + instanceCost(ph.elapsed)
	out := make(metrics)
	if p != nil {
		p.spans.end(out)
		layerMetrics(before, p.counters(e), ph, out)
	}

	raw := e.gen.Bytes
	if w.ingest {
		if err := finishIngest(ctx, e, ph); err != nil {
			return nil, err
		}
		raw += ph.trickleRaw
	}
	commits := ph.commits
	if !w.ingest {
		commits = commitProbe(ctx, e, o.seed, ph)
	}
	e.db.WaitIO()
	space := float64(e.store.StoredBytes()) / float64(raw)

	qlat := make([]float64, len(ph.queries))
	perType := make(map[int][]float64)
	for i, s := range ph.queries {
		qlat[i] = ms(s.lat)
		perType[s.q] = append(perType[s.q], qlat[i])
	}
	// query_p50_ms is the median over query types of each type's median
	// latency. Every type runs equally often in a TPC-H run, so this is the
	// overall median, read from the middle of two latency clusters rather
	// than from the edge between them, which moves with a single sample.
	var typeMedians []float64
	for _, lat := range perType {
		typeMedians = append(typeMedians, median(lat))
	}
	clat := make([]float64, len(commits))
	for i, d := range commits {
		clat[i] = ms(d)
	}
	qph := float64(len(ph.queries)) / ph.elapsed.Hours()
	loadRows := median(loadRate)
	if w.ingest {
		loadRows = float64(ph.loadRows) / (ph.loadCall + ph.bulkCommit).Seconds()
	}
	if p == nil {
		out.set("setup_s", median(setupS), "s")
		out.set("query_p50_ms", median(typeMedians), "ms")
		out.set("query_tail_ms", percentile(qlat, w.tailPct), "ms")
		out.set("qph", qph, "queries/h")
		out.set("load_rows_s", loadRows, "rows/s")
		out.set("commit_p50_ms", median(clat), "ms")
		out.set("commit_tail_ms", percentile(clat, w.commitTailPct), "ms")
		out.set("usd_per_kop", cost/float64(ph.ops())*1000, "USD")
		out.set("space_amp", space, "ratio")
		out.set("peak_rss_mb", float64(peakRSS)/(1<<20), "MB")
	} else {
		driverMetrics(ph, out)
		out.set("trace.e2e.query_p50_ms", median(typeMedians), "ms")
		out.set("trace.e2e.qph", qph, "queries/h")
		out.set("trace.e2e.commit_p50_ms", median(clat), "ms")
		if err := kernelProbe(ctx, e, out); err != nil {
			return nil, fmt.Errorf("layer probe: %w", err)
		}
	}
	return &result{
		Correct:   ph.failed == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   out,
		firstErr:  ph.firstErr,
	}, nil
}

// instance is the EC2 type whose on-demand price the timed phase is charged
// at: 2 vCPUs, like the VM the benchmark was calibrated on.
const instance = "r5.large"

// instanceCost prices d of instance time. It keeps usd_per_kop above zero on
// tpch_warm, which issues no S3 requests at all.
func instanceCost(d time.Duration) float64 {
	usd, err := cloudcost.Default2020().Compute(instance, d)
	if err != nil {
		panic(err) // instance is a constant the price table lists
	}
	return usd
}

// requestCost prices every S3 request and select both buckets have served
// so far at 2020 list prices.
func (e *env) requestCost() float64 {
	prices := cloudcost.Default2020()
	var usd float64
	for _, s := range []*cloudiq.MemObjectStore{e.store, e.input} {
		m := s.Metrics()
		usd += prices.Requests(m.Puts(), m.Gets()) + prices.Select(m.SelectScannedBytes(), m.SelectReturnedBytes())
	}
	return usd
}

// driverMetrics reports the workload driver's own timings of the calls it
// made into the engine.
func driverMetrics(ph *phase, out metrics) {
	per := make(map[int][]float64)
	for _, s := range ph.queries {
		per[s.q] = append(per[s.q], ms(s.lat))
	}
	for q := 1; q <= 22; q++ {
		out.set(fmt.Sprintf("tpch.q%02d_ms", q), median(per[q]), "ms") // 0 when q did not run
	}
	out.set("txn.bulk_commit_ms", ms(ph.bulkCommit), "ms")
	out.set("txn.trickle_insert_ms", ms(ph.trickleInsert), "ms")
	out.set("table.load_ms", ms(ph.loadCall), "ms")
	out.set("table.load_rows", float64(ph.loadRows), "count")
	out.set("table.load_input_bytes", float64(ph.loadInput), "bytes")
	out.set("delta.compact_ms", ms(ph.compact), "ms")
	out.set("delta.compacted_rows", float64(ph.compacted), "count")
	out.set("delta.busy_count", float64(ph.busy), "count")
	out.set("delta.live_rows_max", float64(ph.liveMax), "count")
	late := make([]float64, len(ph.lateness))
	for i, d := range ph.lateness {
		late[i] = ms(d)
	}
	out.set("driver.lateness_ms_p50", median(late), "ms")
	out.set("driver.lateness_ms_max", percentile(late, 100), "ms")
	out.set("driver.ops", float64(ph.ops()), "count")
	out.set("driver.error_rate", float64(ph.failed)/float64(max(ph.attempted, 1)), "ratio")
}

// runQueries is the timed phase of the TPC-H workloads: each stream runs
// seeded Q1–Q22 permutations back to back, closed loop, until the phase is
// over and it has completed minRounds permutations.
func runQueries(ctx context.Context, e *env, w workload, o opts) *phase {
	minPerms := o.minRounds(w)
	streams := make([]*phase, w.streams)
	start := time.Now()
	var wg sync.WaitGroup
	for s := range streams {
		streams[s] = &phase{}
		rng := rand.New(rand.NewSource(o.seed*7919 + int64(s)))
		wg.Add(1)
		go func(ph *phase) {
			defer wg.Done()
			for perms := 0; perms < minPerms || time.Since(start) < o.seconds; perms++ {
				for _, i := range rng.Perm(22) {
					ph.checkQuery(ctx, e, e.conn, i+1)
				}
			}
		}(streams[s])
	}
	wg.Wait()
	ph := &phase{elapsed: time.Since(start)}
	for _, s := range streams {
		ph.queries = append(ph.queries, s.queries...)
		ph.merge(s)
	}
	return ph
}

// commitProbe measures trickle-commit latency on the TPC-H workloads after
// their timed phase, which has no writes: minCommits closed-loop 64-row
// Insert+Commit transactions against the loaded database. It returns their
// latencies and counts its failures in ph.
func commitProbe(ctx context.Context, e *env, seed int64, ph *phase) []time.Duration {
	tr := newTrickler(seed, e.gen)
	var lat []time.Duration
	var scratch phase
	runtime.GC() // the probe starts from the same heap whatever the phase left
	for i := 0; i < minCommits; i++ {
		b, raw, err := tr.batch()
		start := time.Now()
		if err == nil {
			err = commitBatch(ctx, e.db, b, raw, &scratch)
		}
		ph.fail(err)
		if err == nil {
			lat = append(lat, time.Since(start))
		}
	}
	return lat
}
