package main

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"cloudiq"
	"cloudiq/internal/objstore"
	"cloudiq/internal/pageio"
	"cloudiq/internal/trace"
)

// probe instruments a traced run from outside the engine: it wraps the
// object store and block devices handed to the database, installs the
// engine's own IOStats and Trace hooks, and reads the pool and OCM
// statistics. Every method is a no-op on a nil probe, which is how the
// untraced runs that report end-to-end metrics leave the engine
// uninstrumented.
type probe struct {
	reg    *pageio.StatsRegistry
	tracer *cloudiq.Tracer
	spans  *spanCollector
	store  *countingStore
	devs   map[string]*countingDevice
}

// spanCapacity bounds the tracer's ring; the collector drains it every
// spanPoll, far more often than the workloads can fill it.
const (
	spanCapacity = 1 << 15
	spanPoll     = 500 * time.Millisecond
)

func newProbe() *probe {
	t0 := time.Now()
	tracer := cloudiq.NewTracer(cloudiq.TracerConfig{
		Now:      func() time.Duration { return time.Since(t0) },
		Capacity: spanCapacity,
	})
	return &probe{
		reg:    pageio.NewRegistry(),
		tracer: tracer,
		spans:  &spanCollector{t: tracer},
		devs:   make(map[string]*countingDevice),
	}
}

func (p *probe) instrument(cfg *cloudiq.Config) {
	if p == nil {
		return
	}
	cfg.IOStats = p.reg
	cfg.Trace = p.tracer
}

// span opens a root span around one call the benchmark makes into the
// engine, so that the engine's own spans nest under it.
func (p *probe) span(ctx context.Context, name string) (context.Context, func()) {
	if p == nil {
		return ctx, func() {}
	}
	ctx, sp := trace.Root(ctx, p.tracer, name)
	return ctx, sp.End
}

func (p *probe) wrapStore(s cloudiq.ObjectStore) cloudiq.ObjectStore {
	if p == nil {
		return s
	}
	p.store = &countingStore{inner: s}
	return p.store
}

func (p *probe) wrapDevice(name string, d cloudiq.BlockDevice) cloudiq.BlockDevice {
	if p == nil {
		return d
	}
	cd := &countingDevice{inner: d}
	p.devs[name] = cd
	return cd
}

// opCounter counts calls, bytes and the wall time spent inside them.
type opCounter struct{ n, bytes, ns atomic.Int64 }

func (c *opCounter) add(start time.Time, nbytes int) {
	c.n.Add(1)
	c.bytes.Add(int64(nbytes))
	c.ns.Add(int64(time.Since(start)))
}

func (c *opCounter) read(into map[string]float64, prefix string) {
	into[prefix+"_count"] = float64(c.n.Load())
	into[prefix+"_bytes"] = float64(c.bytes.Load())
	into[prefix+"_ms"] = float64(c.ns.Load()) / 1e6
}

// countingStore wraps the user dbspace's object store.
type countingStore struct {
	inner             cloudiq.ObjectStore
	get, put, del     opCounter
	sel               opCounter // bytes = bytes returned
	getMisses, errors atomic.Int64
}

func (s *countingStore) note(err error) {
	switch {
	case err == nil:
	case errors.Is(err, objstore.ErrNotFound):
		s.getMisses.Add(1)
	default:
		s.errors.Add(1)
	}
}

func (s *countingStore) Put(ctx context.Context, key string, data []byte) error {
	start := time.Now()
	err := s.inner.Put(ctx, key, data)
	s.put.add(start, len(data))
	s.note(err)
	return err
}

func (s *countingStore) Get(ctx context.Context, key string) ([]byte, error) {
	start := time.Now()
	data, err := s.inner.Get(ctx, key)
	s.get.add(start, len(data))
	s.note(err)
	return data, err
}

func (s *countingStore) Delete(ctx context.Context, key string) error {
	start := time.Now()
	err := s.inner.Delete(ctx, key)
	s.del.add(start, 0)
	s.note(err)
	return err
}

func (s *countingStore) Exists(ctx context.Context, key string) (bool, error) {
	return s.inner.Exists(ctx, key)
}

func (s *countingStore) List(ctx context.Context, prefix string) ([]string, error) {
	return s.inner.List(ctx, prefix)
}

// Select forwards the store's compute endpoint, so wrapping the store does
// not take pushdown away from the engine.
func (s *countingStore) Select(ctx context.Context, req objstore.SelectRequest) (*objstore.SelectResult, error) {
	sel, ok := s.inner.(objstore.Selector)
	if !ok {
		return nil, objstore.ErrUnsupportedPlan
	}
	start := time.Now()
	res, err := sel.Select(ctx, req)
	returned := 0
	if err == nil {
		returned = int(res.ReturnedBytes)
	}
	s.sel.add(start, returned)
	s.note(err)
	return res, err
}

// countingDevice wraps a block device (the log device or the OCM's SSD).
type countingDevice struct {
	inner       cloudiq.BlockDevice
	read, write opCounter
}

func (d *countingDevice) ReadAt(ctx context.Context, p []byte, off int64) error {
	start := time.Now()
	err := d.inner.ReadAt(ctx, p, off)
	d.read.add(start, len(p))
	return err
}

func (d *countingDevice) WriteAt(ctx context.Context, p []byte, off int64) error {
	start := time.Now()
	err := d.inner.WriteAt(ctx, p, off)
	d.write.add(start, len(p))
	return err
}

func (d *countingDevice) Size() int64 { return d.inner.Size() }

// counters reads every cumulative counter the probe can see. A phase's
// per-layer metrics are the difference of two readings.
func (p *probe) counters(e *env) map[string]float64 {
	c := make(map[string]float64)
	s := p.store
	s.get.read(c, "objstore.get")
	s.put.read(c, "objstore.put")
	s.del.read(c, "objstore.delete")
	s.sel.read(c, "objstore.select")
	c["objstore.get_miss_count"] = float64(s.getMisses.Load())
	c["objstore.error_count"] = float64(s.errors.Load())
	for name, prefix := range map[string]string{"wal": "wal", "ssd": "blockdev.ssd"} {
		if d := p.devs[name]; d != nil {
			d.read.read(c, prefix+".read")
			d.write.read(c, prefix+".write")
		}
	}
	for layer, ls := range p.reg.Snapshot() {
		prefix := "pageio." + strings.ReplaceAll(layer, ":", "_")
		for op, o := range map[string]pageio.OpSnapshot{"read": ls.Read, "write": ls.Write} {
			c[prefix+"."+op+".calls"] = float64(o.Calls)
			c[prefix+"."+op+".items"] = float64(o.Items)
			c[prefix+"."+op+".bytes"] = float64(o.Bytes)
			c[prefix+"."+op+".errors"] = float64(o.Errors)
		}
	}
	ps := e.db.PoolStats()
	c["buffer.hits"] = float64(ps.Hits)
	c["buffer.misses"] = float64(ps.Misses)
	c["buffer.evictions"] = float64(ps.Evictions)
	c["buffer.flushes"] = float64(ps.Flushes)
	for _, o := range e.db.OCMStats() {
		c["ocm.hits"] += float64(o.Hits)
		c["ocm.misses"] += float64(o.Misses)
		c["ocm.evictions"] += float64(o.Evictions)
		c["ocm.uploads"] += float64(o.Uploads)
		c["ocm.upload_fails"] += float64(o.UploadFails)
		c["ocm.fill_drops"] += float64(o.FillDrops)
	}
	c["iomodel.charged_s"] = e.scale.Charged().Seconds()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c["process.gc_count"] = float64(m.NumGC)
	c["process.gc_pause_ms"] = float64(m.PauseTotalNs) / 1e6
	c["process.alloc_bytes"] = float64(m.TotalAlloc)
	cpu, _ := rusage()
	c["process.cpu_s"] = cpu.Seconds()
	return c
}

// layerMetrics turns two counter readings around a phase into the per-layer
// metrics of that phase.
func layerMetrics(before, after map[string]float64, ph *phase, out metrics) {
	d := func(k string) float64 { return after[k] - before[k] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	for _, k := range []string{"get", "put"} {
		out.set("objstore."+k+"_count", d("objstore."+k+"_count"), "count")
		out.set("objstore."+k+"_bytes", d("objstore."+k+"_bytes"), "bytes")
		out.set("objstore."+k+"_ms", d("objstore."+k+"_ms"), "ms")
	}
	ops := float64(ph.ops())
	out.set("objstore.gets_per_op", ratio(d("objstore.get_count"), ops), "count")
	out.set("objstore.get_miss_count", d("objstore.get_miss_count"), "count")
	out.set("objstore.delete_count", d("objstore.delete_count"), "count")
	out.set("objstore.select_count", d("objstore.select_count"), "count")
	out.set("objstore.select_returned_bytes", d("objstore.select_bytes"), "bytes")
	out.set("objstore.error_count", d("objstore.error_count"), "count")
	out.set("iomodel.charged_s", d("iomodel.charged_s"), "sim-s")

	const user = "pageio.dbspace_user"
	out.set(user+".read.items", d(user+".read.items"), "count")
	out.set(user+".read.bytes", d(user+".read.bytes"), "bytes")
	out.set(user+".read.errors", d(user+".read.errors"), "count")
	out.set(user+".read.items_per_call", ratio(d(user+".read.items"), d(user+".read.calls")), "count")
	out.set(user+".write.items", d(user+".write.items"), "count")
	out.set(user+".write.bytes", d(user+".write.bytes"), "bytes")
	out.set("pageio.ocm_user.read.items", d("pageio.ocm_user.read.items"), "count")
	out.set("pageio.ocm_user.write.items", d("pageio.ocm_user.write.items"), "count")

	for _, k := range []string{"hits", "misses", "evictions", "flushes"} {
		out.set("buffer."+k, d("buffer."+k), "count")
	}
	out.set("buffer.hit_rate", ratio(d("buffer.hits"), d("buffer.hits")+d("buffer.misses")), "ratio")
	for _, k := range []string{"hits", "misses", "evictions", "uploads", "upload_fails", "fill_drops"} {
		out.set("ocm."+k, d("ocm."+k), "count")
	}
	out.set("ocm.hit_rate", ratio(d("ocm.hits"), d("ocm.hits")+d("ocm.misses")), "ratio")
	for _, op := range []string{"read", "write"} {
		k := "blockdev.ssd." + op
		out.set(k+"_count", d(k+"_count"), "count")
		out.set(k+"_bytes", d(k+"_bytes"), "bytes")
		out.set(k+"_ms", d(k+"_ms"), "ms")
	}
	out.set("wal.write_count", d("wal.write_count"), "count")
	out.set("wal.write_bytes", d("wal.write_bytes"), "bytes")
	out.set("wal.write_ms", d("wal.write_ms"), "ms")

	out.set("process.cpu_s", d("process.cpu_s"), "s")
	out.set("process.cpu_per_op_ms", ratio(d("process.cpu_s")*1e3, ops), "ms")
	out.set("process.gc_count", d("process.gc_count"), "count")
	out.set("process.gc_pause_ms", d("process.gc_pause_ms"), "ms")
	out.set("process.alloc_bytes_per_op", ratio(d("process.alloc_bytes"), ops), "bytes")
}

// tracedSpans are the engine spans whose self time the traced run reports.
var tracedSpans = []string{
	"scan.segment", "scan.prefetch", "flush.compress", "flush.write",
	"commit.flush", "commit.wal", "ocm.get", "ocm.upload",
}

// spanCollector drains the tracer's ring buffer while a phase runs, so the
// phase's spans survive the ring's wrap-around.
type spanCollector struct {
	t    *cloudiq.Tracer
	seen uint64 // spans completed as of the last poll
	lost uint64 // spans that wrapped out of the ring between two polls
	recs []spanRec
	stop chan struct{}
	done chan struct{}
}

type spanRec struct {
	id, parent uint64
	name       string
	start, end time.Duration
}

func (c *spanCollector) poll() {
	spans, dropped := c.t.Snapshot()
	total := uint64(len(spans)) + dropped
	fresh := total - c.seen
	if fresh > uint64(len(spans)) {
		c.lost += fresh - uint64(len(spans))
		fresh = uint64(len(spans))
	}
	for _, s := range spans[uint64(len(spans))-fresh:] {
		c.recs = append(c.recs, spanRec{id: s.ID, parent: s.Parent, name: s.Name, start: s.Start, end: s.Start + s.Dur})
	}
	c.seen = total
}

// begin discards the spans completed so far and starts draining.
func (c *spanCollector) begin() {
	c.poll()
	c.recs, c.lost = nil, 0
	c.stop, c.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(c.done)
		tick := time.NewTicker(spanPoll)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				c.poll()
				return
			case <-tick.C:
				c.poll()
			}
		}
	}()
}

// end stops draining and reports each traced span's count and self time:
// its duration minus the part of it that its direct children cover.
func (c *spanCollector) end(out metrics) {
	close(c.stop)
	<-c.done
	children := make(map[uint64][]int)
	for i, r := range c.recs {
		if r.parent != 0 {
			children[r.parent] = append(children[r.parent], i)
		}
	}
	count := make(map[string]float64)
	self := make(map[string]time.Duration)
	for _, r := range c.recs {
		count[r.name]++
		var iv [][2]time.Duration
		for _, ci := range children[r.id] {
			ch := c.recs[ci]
			lo, hi := max(ch.start, r.start), min(ch.end, r.end)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		self[r.name] += r.end - r.start - covered(iv)
	}
	for _, name := range tracedSpans {
		out.set("trace."+name+".count", count[name], "count")
		out.set("trace."+name+".self_ms", ms(self[name]), "ms")
	}
	out.set("trace.lost_spans", float64(c.lost), "count")
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi time.Duration
	for _, x := range iv {
		if x[1] <= hi {
			continue
		}
		lo := max(x[0], hi)
		total += x[1] - lo
		hi = x[1]
	}
	return total
}
