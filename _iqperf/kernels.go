package main

import (
	"context"
	"errors"
	"runtime"
	"time"

	"cloudiq"
	"cloudiq/internal/buffer"
	"cloudiq/internal/column"
)

// Sizes of the layer probe: how many stored pages it samples and how many
// times it repeats each kernel over its inputs, so every kernel is timed
// over tens of milliseconds.
const (
	probePages   = 512
	probeRepeats = 5
)

// kernelProbe times the engine's CPU kernels on this run's own data, after
// the timed phase: the page codec and the column decoder on pages read back
// from the user dbspace's store, and HashJoin and HashAgg on batches scanned
// from the loaded tables. Simulated I/O time is off while it runs.
func kernelProbe(ctx context.Context, e *env, out metrics) error {
	e.scale.Set(0)
	defer e.scale.Set(timeScale)

	var compressed [][]byte
	keys := e.store.AllKeys()
	step := max(len(keys)/probePages, 1)
	for i := 0; i < len(keys); i += step {
		data, err := e.store.Get(ctx, keys[i])
		if err != nil {
			return err
		}
		compressed = append(compressed, data)
	}
	codec := buffer.FlateCodec{}
	var pages [][]byte
	for _, c := range compressed {
		if p, err := codec.Decompress(c); err == nil {
			pages = append(pages, p)
		}
	}
	if len(pages) == 0 {
		return errors.New("no compressed pages in the store")
	}
	var segs [][]byte
	for _, p := range pages {
		if _, err := column.DecodeSegment(p); err == nil {
			segs = append(segs, p)
		}
	}
	pageBytes, segBytes := 0, 0
	for _, p := range pages {
		pageBytes += len(p)
	}
	for _, s := range segs {
		segBytes += len(s)
	}

	d, allocs := timeKernel(func() {
		for _, c := range compressed {
			_, _ = codec.Decompress(c) // pages that failed above fail the same way
		}
	})
	out.set("buffer.codec.decompress_mb_s", mbps(pageBytes, d), "MB/s")
	out.set("buffer.codec.decompress_allocs_per_page", allocs/float64(len(compressed)), "count")
	d, allocs = timeKernel(func() {
		for _, p := range pages {
			codec.Compress(p)
		}
	})
	out.set("buffer.codec.compress_mb_s", mbps(pageBytes, d), "MB/s")
	out.set("buffer.codec.compress_allocs_per_page", allocs/float64(len(pages)), "count")
	d, allocs = timeKernel(func() {
		for _, s := range segs {
			_, _ = column.DecodeSegment(s) // decoded without error above
		}
	})
	out.set("column.decode_mb_s", mbps(segBytes, d), "MB/s")
	out.set("column.decode_allocs_per_segment", allocs/float64(max(len(segs), 1)), "count")

	reader := e.db.Begin()
	defer func() { _ = reader.Rollback(ctx) }() // read-only
	orders, err := scanAll(ctx, reader, "orders", "o_orderkey", "o_custkey")
	if err != nil {
		return err
	}
	items, err := scanAll(ctx, reader, "lineitem", "l_orderkey", "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice")
	if err != nil {
		return err
	}
	rows := float64(orders.Rows() + items.Rows())
	var kerr error
	d, allocs = timeKernel(func() {
		_, err := cloudiq.HashJoin(ctx, cloudiq.SliceSource(orders), []string{"o_orderkey"},
			cloudiq.SliceSource(items), []string{"l_orderkey"}, cloudiq.Inner)
		kerr = errors.Join(kerr, err)
	})
	out.set("exec.hashjoin_rows_s", rows/d.Seconds(), "rows/s")
	out.set("exec.hashjoin_allocs_per_row", allocs/rows, "count")
	rows = float64(items.Rows())
	d, allocs = timeKernel(func() {
		_, err := cloudiq.HashAgg(ctx, cloudiq.SliceSource(items), []string{"l_returnflag", "l_linestatus"}, []cloudiq.Agg{
			{Func: cloudiq.Sum, Expr: cloudiq.Col("l_quantity"), As: "sum_qty"},
			{Func: cloudiq.Sum, Expr: cloudiq.Col("l_extendedprice"), As: "sum_price"},
			{Func: cloudiq.Count, As: "n"},
		})
		kerr = errors.Join(kerr, err)
	})
	out.set("exec.hashagg_rows_s", rows/d.Seconds(), "rows/s")
	out.set("exec.hashagg_allocs_per_row", allocs/rows, "count")
	return kerr
}

// timeKernel runs f probeRepeats times and returns the wall time and heap
// allocations of one run.
func timeKernel(f func()) (time.Duration, float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < probeRepeats; i++ {
		f()
	}
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return d / probeRepeats, float64(after.Mallocs-before.Mallocs) / probeRepeats
}

func mbps(n int, d time.Duration) float64 { return float64(n) / 1e6 / d.Seconds() }

func scanAll(ctx context.Context, tx *cloudiq.Tx, table string, cols ...string) (*cloudiq.Batch, error) {
	tbl, err := tx.Table(ctx, "user", table)
	if err != nil {
		return nil, err
	}
	src, err := cloudiq.Scan(tbl, cols, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	return cloudiq.Collect(ctx, src)
}
