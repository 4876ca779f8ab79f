package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"cloudiq"
	"cloudiq/tpch"
)

// ingest_mixed settings.
const (
	trickleRows = 64 // rows per trickle transaction
	trickleRate = 20 // trickle transactions per second, well below saturation
	// bulkParallel is client B's cloudiq.Load parallelism. Loading one
	// input file at a time keeps the bulk client to about one core of two,
	// so commit latency measures the engine's interference, not a wait for
	// a CPU the bulk load has taken.
	bulkParallel = 1
	copyTable    = "partsupp"
	drainTries   = 1000 // CompactDelta attempts per drain before giving up
)

// roundQueries is the query sequence of one bulk round. With Q1 and Q6
// equally often, query_tail_ms (p75) is the median of Q1, the slower of the
// two: Q1 scans every lineitem segment and merges the whole live delta.
var roundQueries = []int{1, 6, 1, 6, 1, 6}

// trickler generates 64-row lineitem batches from the seed. Every row ships
// in 1999, after the last TPC-H ship date, so the Q1 and Q6 answers stay
// equal to the reference while the rows sit in the delta store, and the
// queries still check the MVCC merge of delta rows with stored segments.
type trickler struct {
	rng    *rand.Rand
	schema cloudiq.Schema
	key    int64 // next l_orderkey, above every generated order key
}

func newTrickler(seed int64, gen tpch.GenStats) *trickler {
	return &trickler{
		rng:    rand.New(rand.NewSource(seed)),
		schema: tpch.Schemas()["lineitem"],
		key:    gen.Rows["orders"]*4 + 1<<20,
	}
}

// batch makes the next 64-row batch and returns it with its size as
// '|'-separated input.
func (t *trickler) batch() (*cloudiq.Batch, int64, error) {
	first := cloudiq.DateToDays(1999, time.January, 1)
	day := func(d int64) string { return cloudiq.DaysToDate(d).Format("2006-01-02") }
	var sb strings.Builder
	for i := 0; i < trickleRows; i++ {
		qty := t.rng.Intn(50) + 1
		ship := first + int64(t.rng.Intn(300))
		fmt.Fprintf(&sb, "%d|%d|%d|%d|%d|%.2f|%.2f|%.2f|N|O|%s|%s|%s|NONE|TRUCK|trickle row %d|\n",
			t.key, t.rng.Intn(2000)+1, t.rng.Intn(100)+1, i%7+1, qty, float64(qty)*(900+t.rng.Float64()*100),
			float64(t.rng.Intn(11))/100, float64(t.rng.Intn(9))/100,
			day(ship), day(ship+30), day(ship+int64(t.rng.Intn(30))+1), t.rng.Int63())
		if i%7 == 6 {
			t.key += 4
		}
	}
	t.key += 4
	b, err := cloudiq.ParseRows(t.schema, sb.String())
	return b, int64(sb.Len()), err
}

// commitBatch inserts batch b, of raw input bytes, into lineitem and
// commits it, recording the time inside Tx.Insert and the acknowledged rows
// in ph.
func commitBatch(ctx context.Context, db *cloudiq.Database, b *cloudiq.Batch, raw int64, ph *phase) error {
	tx := db.Begin()
	start := time.Now()
	err := tx.Insert(ctx, "lineitem", b)
	ph.trickleInsert += time.Since(start)
	if err != nil {
		return errors.Join(err, tx.Rollback(ctx))
	}
	if err := tx.Commit(ctx); err != nil {
		return err
	}
	ph.trickleRows += int64(b.Rows())
	ph.trickleRaw += raw
	return nil
}

// runIngest is the timed phase of ingest_mixed. Client A sends trickle
// commits open loop at trickleRate; client B loops over bulk rounds until
// the phase is over. Both stop when B finishes its last round.
func runIngest(ctx context.Context, e *env, o opts) (*phase, error) {
	e.release(ctx) // every round queries at a fresh snapshot
	var a phase
	b := &phase{}
	tr := newTrickler(o.seed, e.gen)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		trickleClient(ctx, e, tr, start, stop, &a)
	}()
	err := bulkClient(ctx, e, o, start, b)
	close(stop)
	wg.Wait()
	b.elapsed = time.Since(start)
	if err != nil {
		return nil, err
	}
	b.commits, b.lateness = a.commits, a.lateness
	b.trickleInsert, b.trickleRows, b.trickleRaw = a.trickleInsert, a.trickleRows, a.trickleRaw
	b.merge(&a)
	return b, nil
}

// trickleClient sends transaction i at start + i/trickleRate and times it
// from that scheduled instant, so a stall also delays the transactions
// queued behind it. Each batch is made before its send time, so the timing
// holds no work of the client's own.
func trickleClient(ctx context.Context, e *env, tr *trickler, start time.Time, stop <-chan struct{}, ph *phase) {
	timer := time.NewTimer(0)
	defer timer.Stop()
	for i := 0; ; i++ {
		b, raw, err := tr.batch()
		if err != nil {
			ph.fail(err)
			return
		}
		due := start.Add(time.Duration(i) * time.Second / trickleRate)
		timer.Reset(time.Until(due))
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		ph.lateness = append(ph.lateness, time.Since(due))
		tctx, end := e.probe.span(ctx, "iqperf.trickle")
		err = commitBatch(tctx, e.db, b, raw, ph)
		end()
		ph.fail(err)
		if err == nil {
			ph.commits = append(ph.commits, time.Since(due))
		}
	}
}

// bulkClient runs rounds of: bulk-load a fresh copy of a TPC-H table, run
// Q1 and Q6 at a new snapshot (merging the live delta), compact the delta,
// then drop the copy and collect garbage. It starts a round only while the
// timed phase lasts, and always finishes the round it is in.
func bulkClient(ctx context.Context, e *env, o opts, start time.Time, ph *phase) error {
	schema := tpch.Schemas()[copyTable]
	topts := tpch.Options(sf, segRows)[copyTable]
	for round := 0; round < o.minRounds(e.w) || time.Since(start) < o.seconds; round++ {
		name := fmt.Sprintf("%s_copy%d", copyTable, round)
		tx := e.db.Begin()
		tbl, err := tx.CreateTable(ctx, "user", name, schema, topts)
		if err != nil {
			return errors.Join(err, tx.Rollback(ctx))
		}
		lctx, end := e.probe.span(ctx, "iqperf.load")
		t0 := time.Now()
		st, err := cloudiq.Load(lctx, tbl, e.input, "tpch/"+copyTable+"/", bulkParallel)
		t1 := time.Now()
		end()
		ph.loadCall += t1.Sub(t0)
		if err != nil {
			ph.fail(err)
			if err := tx.Rollback(ctx); err != nil {
				return err
			}
			continue
		}
		err = tx.Commit(ctx)
		ph.bulkCommit += time.Since(t1)
		if err == nil && st.Rows != e.gen.Rows[copyTable] {
			err = fmt.Errorf("load of %s reported %d rows, input has %d", name, st.Rows, e.gen.Rows[copyTable])
		}
		ph.fail(err)
		if err != nil {
			continue
		}
		ph.loads++
		ph.loadRows += st.Rows
		ph.loadInput += st.Bytes

		if err := queryRound(ctx, e, name, ph); err != nil {
			return err
		}
		ph.liveMax = max(ph.liveMax, e.db.DeltaLiveRows("lineitem"))
		if err := drain(ctx, e, ph, false); err != nil {
			return err
		}
		tx = e.db.Begin()
		if err := tx.DropTable(ctx, "user", name); err != nil {
			return errors.Join(err, tx.Rollback(ctx))
		}
		if err := tx.Commit(ctx); err != nil {
			return err
		}
		if err := e.db.CollectGarbage(ctx); err != nil {
			return err
		}
	}
	return nil
}

// queryRound runs roundQueries at a fresh snapshot and checks that the copy
// just loaded holds every input row.
func queryRound(ctx context.Context, e *env, name string, ph *phase) error {
	reader := e.db.Begin()
	defer func() { _ = reader.Rollback(ctx) }() // read-only
	conn, err := tpch.OpenConn(ctx, reader, "user")
	if err != nil {
		return err
	}
	for _, q := range roundQueries {
		ph.checkQuery(ctx, e, conn, q)
	}
	n, err := countRows(ctx, reader, name, "ps_partkey")
	if err == nil && n != e.gen.Rows[copyTable] {
		err = fmt.Errorf("copy %s holds %d rows, input has %d", name, n, e.gen.Rows[copyTable])
	}
	ph.fail(err)
	return nil
}

// drain freezes the delta and compacts the frozen rows. Rows committed
// meanwhile stay live until the next round; with untilEmpty, used once the
// trickle client has stopped, it repeats until no delta rows are left.
func drain(ctx context.Context, e *env, ph *phase, untilEmpty bool) error {
	for try := 0; try < drainTries; try++ {
		e.db.FreezeDelta()
		cctx, end := e.probe.span(ctx, "iqperf.compact")
		start := time.Now()
		n, err := e.db.CompactDelta(cctx, "user")
		ph.compact += time.Since(start)
		end()
		switch {
		case errors.Is(err, cloudiq.ErrDeltaBusy):
			ph.busy++
			continue
		case err != nil:
			return fmt.Errorf("compact delta: %w", err)
		}
		ph.compacted += int64(n)
		if !untilEmpty || n == 0 {
			return nil
		}
	}
	return fmt.Errorf("delta not drained after %d compactions", drainTries)
}

// finishIngest drains what the trickle client left and checks that
// lineitem holds the generated rows plus every acknowledged trickle row.
func finishIngest(ctx context.Context, e *env, ph *phase) error {
	var scratch phase
	if err := drain(ctx, e, &scratch, true); err != nil {
		return err
	}
	if err := e.db.CollectGarbage(ctx); err != nil {
		return err
	}
	reader := e.db.Begin()
	defer func() { _ = reader.Rollback(ctx) }() // read-only
	n, err := countRows(ctx, reader, "lineitem", "l_orderkey")
	if want := e.gen.Rows["lineitem"] + ph.trickleRows; err == nil && n != want {
		err = fmt.Errorf("lineitem holds %d rows after the final drain, want %d", n, want)
	}
	ph.fail(err)
	return nil
}

func countRows(ctx context.Context, tx *cloudiq.Tx, table, col string) (int64, error) {
	tbl, err := tx.Table(ctx, "user", table)
	if err != nil {
		return 0, err
	}
	src, err := cloudiq.Scan(tbl, []string{col}, cloudiq.ScanOptions{})
	if err != nil {
		return 0, err
	}
	b, err := cloudiq.Collect(ctx, src)
	if err != nil {
		return 0, err
	}
	return int64(b.Rows()), nil
}
