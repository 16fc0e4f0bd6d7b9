package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/beldi"
	"repro/internal/dynamo"
	"repro/internal/hist"
	"repro/internal/platform"
	"repro/internal/remote"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/walstore"
)

// workload is one benchmark workload. A run repeats rounds of it: each
// round builds a fresh deployment, seeds it, sends warmup requests, then
// times a fixed number of requests, so every round ends with the same
// amount of state.
type workload struct {
	name    string
	backend string // "memory" or "remote"
	spec    bool   // DeploymentOptions.Speculation with zero-value options
	// passes is the number of collector passes in the timed phase, at
	// fixed request counts. With any, set-up ends with a pass that stamps
	// the warm-up's intents and a wait past Config.T; one timed pass then
	// reclaims exactly those, whatever the host's speed.
	passes int

	warmup, requests int
}

var workloads = []workload{
	{name: "travel-mem", backend: "memory", warmup: 400, requests: 5000},
	{name: "travel-gc", backend: "memory", passes: 1, warmup: 1000, requests: 5000},
	{name: "travel-remote-spec", backend: "remote", spec: true, warmup: 300, requests: 2000},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// clients is the number of closed-loop clients: each sends its next
// request only once the previous reply is back.
const clients = 2

// env is one round's deployment and everything under it.
type env struct {
	w       workload
	clk     *skewClock
	plat    *platform.Platform
	d       *beldi.Deployment
	app     *travelApp
	seam    *seam           // beneath the overlay, around the Backend handed in
	srvSeam *seam           // around the backend given to remote.NewServer
	durable storage.Backend // the store that holds the state durably (or in memory)
	wal     *walstore.Store
	server  *remote.Server
	client  *remote.Client
	dir     string
	hub     *telemetry.Hub // traced rounds only
	fsync   *hist.Histogram
	gate    sync.RWMutex // held for reading around each request, for writing by a collector pass
}

// tracerCap bounds the telemetry ring of a traced round; it must hold every
// span of the timed phase (the trace check fails on any dropped span).
const tracerCap = 1 << 23

func newEnv(w workload, tmp string, traced bool) (*env, error) {
	e := &env{w: w, clk: new(skewClock)}
	var base storage.Backend
	switch w.backend {
	case "memory":
		e.durable = dynamo.NewStore()
		base = e.durable
	case "remote":
		dir, err := os.MkdirTemp(tmp, w.name+"-*")
		if err != nil {
			return nil, err
		}
		e.dir = dir
		if e.wal, err = walstore.Open(dir, walOptions); err != nil {
			return nil, errors.Join(err, e.close())
		}
		e.durable = e.wal
		base = e.wal
	default:
		return nil, fmt.Errorf("unknown backend %q", w.backend)
	}
	if e.wal != nil {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		e.srvSeam = newSeam(e.wal, e.clk)
		e.server = remote.NewServer(e.srvSeam.backend(), remote.ServeOptions{})
		go e.server.Serve(lis)
		if e.client, err = remote.Dial(lis.Addr().String(), remote.Options{PoolSize: clients}); err != nil {
			return nil, errors.Join(err, e.close())
		}
		base = e.client
	}
	e.seam = newSeam(base, e.clk)

	e.plat = platform.New(platform.Options{})
	opts := beldi.DeploymentOptions{Store: e.seam.backend(), Platform: e.plat, Clock: e.clk}
	if w.spec {
		opts.Speculation = &beldi.SpeculationOptions{}
	}
	if traced {
		e.hub = &telemetry.Hub{Registry: telemetry.NewRegistry(), Tracer: telemetry.NewTracer(tracerCap)}
		opts.Telemetry = e.hub
	}
	e.d = beldi.NewDeployment(opts)
	e.app = newTravelApp(e.d)
	if e.wal != nil {
		e.fsync = new(hist.Histogram)
		e.wal.SetFsyncHistogram(e.fsync)
	}
	if err := e.app.a.Seed(); err != nil {
		return nil, errors.Join(err, e.close())
	}
	return e, nil
}

// skewClock is a round's clock: its deployment's and that of the
// benchmark's own spans. It is the wall clock plus an offset that only
// moves forward. Where finished intents must age past Config.T before a
// collector pass, the benchmark advances the offset instead of sleeping: no
// request is in flight then, and the runtimes see the same jump a sleep
// would give them.
type skewClock struct{ offset atomic.Int64 }

func (c *skewClock) Now() time.Time { return time.Now().Add(time.Duration(c.offset.Load())) }

func (c *skewClock) Sleep(d time.Duration) { time.Sleep(d) }

func (c *skewClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	time.AfterFunc(d, func() { ch <- c.Now() })
	return ch
}

func (c *skewClock) advance(d time.Duration) { c.offset.Add(int64(d)) }

// walOptions opens every walstore: group-committed fsyncs, as on both
// sides of every comparison, and default options otherwise.
var walOptions = walstore.Options{Sync: walstore.SyncBatched}

// fence waits until every speculated write is durable (no-op without
// speculation).
func (e *env) fence() error {
	if p := e.d.Pipeline(); p != nil {
		return p.Fence()
	}
	return nil
}

// close stops the deployment and releases the stores and the temp dir.
func (e *env) close() error {
	if e.d != nil {
		e.d.Stop()
		e.d = nil
	}
	var errs []error
	if e.client != nil {
		errs = append(errs, e.client.Close())
		e.client = nil
	}
	if e.server != nil {
		errs = append(errs, e.server.Close())
		e.server = nil
	}
	if e.wal != nil {
		errs = append(errs, e.wal.Close())
		e.wal = nil
	}
	if e.dir != "" {
		errs = append(errs, os.RemoveAll(e.dir))
		e.dir = ""
	}
	return errors.Join(errs...)
}

// runtimes lists the application's SSF runtimes.
func (e *env) runtimes() []*beldi.Runtime {
	var rts []*beldi.Runtime
	for _, fn := range travelFunctions {
		rts = append(rts, e.d.Runtime(fn))
	}
	return rts
}

// latencies collects the timed requests' latencies in milliseconds and,
// in a traced round, their Invoke spans.
type latencies struct {
	traced bool

	mu        sync.Mutex
	all, upds []float64
	invokes   []ownSpan
}

func (l *latencies) add(op string, t0, t1 time.Time, update bool) {
	ms := float64(t1.Sub(t0)) / 1e6
	l.mu.Lock()
	defer l.mu.Unlock()
	l.all = append(l.all, ms)
	if update {
		l.upds = append(l.upds, ms)
	}
	if l.traced {
		l.invokes = append(l.invokes, ownSpan{Kind: "invoke", Name: op, Start: t0.UnixNano(), End: t1.UnixNano()})
	}
}

// drive sends reqs through the closed-loop clients, which take the next
// request in order from the shared list. done is called with the number of
// requests completed so far after each one. It returns the failed count.
func (e *env) drive(reqs []dynamo.Value, lat *latencies, done func(n int64)) int64 {
	var next, completed, failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(reqs)) {
					return
				}
				req := reqs[i]
				op := req.Map()["op"].Str()
				e.gate.RLock()
				t0 := e.clk.Now()
				out, err := e.d.Invoke(e.app.entry(), req)
				t1 := e.clk.Now()
				e.gate.RUnlock()
				if err == nil {
					err = e.app.reply(req, out)
				}
				if err != nil {
					if failed.Add(1) == 1 {
						fmt.Fprintf(os.Stderr, "%s: request %d (%s) failed: %v\n", e.w.name, i, op, err)
					}
				} else if lat != nil {
					lat.add(op, t0, t1, isUpdate(op))
				}
				if done != nil {
					done(completed.Add(1))
				}
			}
		}()
	}
	wg.Wait()
	return failed.Load()
}

// collectorPass runs the intent collector on every runtime, then the
// garbage collector on every runtime, returning the summed time of each.
func (e *env) collectorPass() (ic, gc time.Duration, err error) {
	rts := e.runtimes()
	for _, rt := range rts {
		t0 := time.Now()
		_, perr := rt.RunIntentCollector()
		ic += time.Since(t0)
		if perr != nil {
			return ic, gc, fmt.Errorf("intent collector %s: %w", rt.Function(), perr)
		}
	}
	for _, rt := range rts {
		t0 := time.Now()
		_, perr := rt.RunGarbageCollector()
		gc += time.Since(t0)
		if perr != nil {
			return ic, gc, fmt.Errorf("garbage collector %s: %w", rt.Function(), perr)
		}
	}
	return ic, gc, nil
}

// counters is a point-in-time copy of every counter a round reads.
type counters struct {
	cpu, allocs, gcCPU, gcCycles float64

	invocations int64
	steps       int64 // Reads+Writes+CondWrites+SyncCalls+AsyncCalls+Locks+Unlocks
	txnBegun    int64
	txnCommit   int64
	restarts    int64
	gcRowsDel   int64

	storeOps   int64 // the Backend handed to the deployment
	storeBytes int64 // summed TableBytes of the durable store
	dyn        dynamo.Snapshot
	wal        walstore.StatsView
	flushes    int64
	flushRows  int64
	fenceWaits int64
	rpc        remote.ClientStatsSnapshot
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// processCounters reads CPU time (getrusage) and the Go runtime's
// allocation and GC counters.
func processCounters(c *counters) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	s := append([]metrics.Sample(nil), rtSamples...)
	metrics.Read(s)
	c.allocs = float64(s[0].Value.Uint64())
	c.gcCPU = s[1].Value.Float64()
	c.gcCycles = float64(s[2].Value.Uint64())
}

// liveHeap forces a GC and returns the live heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// storeCounters reads the deployment's and the stores' counters.
func (e *env) storeCounters(c *counters) error {
	c.invocations = e.plat.Metrics().Snapshot().Invocations
	for _, rt := range e.runtimes() {
		s := rt.StatsSnapshot()
		c.steps += s.Reads + s.Writes + s.CondWrites + s.SyncCalls + s.AsyncCalls + s.Locks + s.Unlocks
		c.txnBegun += s.TxnBegun
		c.txnCommit += s.TxnCommitted
		c.restarts += s.Restarts
		c.gcRowsDel += s.GCRowsDeleted
	}
	c.storeOps = e.seam.inner.Metrics().Snapshot().TotalOps()
	for _, t := range e.durable.TableNames() {
		n, err := e.durable.TableBytes(t)
		if err != nil {
			return fmt.Errorf("table bytes %s: %w", t, err)
		}
		c.storeBytes += int64(n)
	}
	if ds, ok := storage.AsDynamo(e.durable); ok {
		c.dyn = ds.Metrics().Snapshot()
	}
	if e.wal != nil {
		c.wal = e.wal.WAL().Snapshot()
	}
	if p := e.d.Pipeline(); p != nil {
		st := p.Snapshot()
		c.flushes, c.flushRows, c.fenceWaits = st.Flushes, st.FlushedRows, st.FenceWaits
	}
	if e.client != nil {
		c.rpc = e.client.Stats().Snapshot()
	}
	return nil
}

// roundResult is what one round measured.
type roundResult struct {
	traced    bool
	attempted int64
	failed    int64
	lat       *latencies
	m         map[string]float64 // per-round metrics
	spans     *traceDump         // traced rounds only
	checkErr  error              // the first output check that failed
}

// runRound builds a fresh deployment, warms it, times w.requests requests
// (with w.passes collector passes at fixed request counts), and checks the
// outputs. final asks for the checks that cost seconds, once per run.
func runRound(w workload, seed int64, round int, tmp string, traced bool, final func() bool) (*roundResult, error) {
	// Start every round from the same clean heap, so the Go GC's cycles
	// fall alike in every round.
	runtime.GC()
	t0 := time.Now()
	e, err := newEnv(w, tmp, traced)
	if err != nil {
		return nil, fmt.Errorf("set up: %w", err)
	}
	defer e.close()

	// Inputs depend on the seed and the round only.
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(round)))
	reqs := append(e.app.draw(r, w.warmup), e.app.draw(r, w.requests)...)
	res := &roundResult{traced: traced, lat: &latencies{traced: traced}, m: map[string]float64{}}
	res.attempted = int64(len(reqs) + w.passes)
	res.failed = e.drive(reqs[:w.warmup], nil, nil)
	if err := e.fence(); err != nil {
		return nil, fmt.Errorf("fence after warm-up: %w", err)
	}
	if w.passes > 0 {
		// Stamp the warm-up's intents and age them past Config.T, so the
		// timed phase's first pass reclaims exactly those, however fast
		// the host runs.
		res.attempted++
		if _, _, err := e.collectorPass(); err != nil {
			return nil, fmt.Errorf("collector pass after warm-up: %w", err)
		}
		e.clk.advance(e.collectorAge())
	}
	setup := time.Since(t0)

	// Timed phase.
	var before, after counters
	if err := e.storeCounters(&before); err != nil {
		return nil, err
	}
	if e.fsync != nil {
		e.fsync.Reset()
	}
	if e.client != nil {
		e.client.RPCLatency().Reset()
	}
	if traced {
		e.hub.Tracer.Reset()
		e.seam.setTracing(true)
		if e.srvSeam != nil {
			e.srvSeam.setTracing(true)
		}
	}
	// The collector passes run at fixed request counts while the clients
	// wait (drive holds gate for reading around each request), so a pass
	// adds its own time to the timed phase and none of it overlaps a
	// request: the phase's length does not depend on how the scheduler
	// shares two CPUs between a pass and the clients.
	var icMs, gcMs []float64
	var passWindows []interval
	var passErr error
	thresholds := map[int64]bool{}
	for k := 1; k <= w.passes; k++ {
		thresholds[int64(w.requests*k/(w.passes+1))] = true
	}
	processCounters(&before)
	start := e.clk.Now()
	res.failed += e.drive(reqs[w.warmup:], res.lat, func(n int64) {
		if !thresholds[n] {
			return
		}
		e.gate.Lock()
		defer e.gate.Unlock()
		t0 := e.clk.Now()
		ic, gc, err := e.collectorPass()
		passWindows = append(passWindows, interval{t0.UnixNano(), e.clk.Now().UnixNano()})
		icMs = append(icMs, float64(ic)/1e6)
		gcMs = append(gcMs, float64(gc)/1e6)
		if err != nil && passErr == nil {
			passErr = err
		}
	})
	end := e.clk.Now()
	elapsed := end.Sub(start)
	processCounters(&after)
	if passErr != nil {
		res.failed++
		fmt.Fprintf(os.Stderr, "%s: collector pass failed: %v\n", w.name, passErr)
	}
	if traced {
		e.seam.tracing.Store(false)
		if e.srvSeam != nil {
			e.srvSeam.tracing.Store(false)
		}
	}
	if err := e.fence(); err != nil {
		return nil, fmt.Errorf("fence after timed phase: %w", err)
	}
	if err := e.storeCounters(&after); err != nil {
		return nil, err
	}
	live := liveHeap()

	n := float64(w.requests)
	m := res.m
	m["setup_s"] = setup.Seconds()
	m["throughput_rps"] = n / elapsed.Seconds()
	m["cpu_ms_per_req"] = (after.cpu - before.cpu) * 1e3 / n
	m["alloc_kb_per_req"] = (after.allocs - before.allocs) / 1024 / n
	m["live_heap_mb"] = live / (1 << 20)
	m["store_bytes_per_req"] = float64(after.storeBytes-before.storeBytes) / n
	m["store_ops_per_req"] = float64(after.storeOps-before.storeOps) / n
	// Exact percentiles of this round's latencies. The tail is printed per
	// round below but is no end-to-end metric: its rounds and runs spread
	// past any bound the benchmark may set (see README, "No tail
	// percentile").
	m["req_p50_ms"] = quantile(res.lat.all, 0.50)
	m["update_p50_ms"] = quantile(res.lat.upds, 0.50)
	layerCounters(m, n, &before, &after, e)
	m["core.ic_pass_ms"] = median(icMs)
	m["core.gc_pass_ms"] = median(gcMs)

	if traced {
		if d := e.hub.Tracer.Dropped(); d > 0 {
			return nil, fmt.Errorf("trace: the span ring dropped %d spans", d)
		}
		res.spans = &traceDump{
			t0: start.UnixNano(), t1: end.UnixNano(), n: w.requests,
			core: e.hub.Tracer.Spans(), own: res.lat.invokes,
			store: e.seam.takeSpans(), overlay: w.spec,
			passes: passWindows, remote: e.client != nil,
		}
		if e.srvSeam != nil {
			res.spans.server = e.srvSeam.takeSpans()
		}
		analyze(res.spans, m)
	}

	fmt.Fprintf(os.Stderr, "%s: round %d: setup %.3f s, %.1f requests/s, p50 %.3f ms, p90 %.3f ms, p95 %.3f ms, p99 %.3f ms, cpu %.4f ms/request, %.0f Go GC cycles\n",
		w.name, round, setup.Seconds(), m["throughput_rps"], m["req_p50_ms"], quantile(res.lat.all, 0.90), quantile(res.lat.all, 0.95), quantile(res.lat.all, 0.99), m["cpu_ms_per_req"], m["go.gc_cycles"])
	if err := e.checkRound(after.restarts-before.restarts, final()); err != nil {
		res.checkErr = err
		fmt.Fprintf(os.Stderr, "%s: round %d: output check failed: %v\n", w.name, round, err)
	}
	return res, nil
}

// layerCounters derives the per-layer counter metrics of the timed phase.
func layerCounters(m map[string]float64, n float64, b, a *counters, e *env) {
	per := func(x int64) float64 { return float64(x) / n }
	m["platform.invocations_per_req"] = per(a.invocations - b.invocations)
	m["core.steps_per_req"] = per(a.steps - b.steps)
	m["core.txn_commit_ratio"] = 0
	if begun := a.txnBegun - b.txnBegun; begun > 0 {
		m["core.txn_commit_ratio"] = float64(a.txnCommit-b.txnCommit) / float64(begun)
	}
	m["core.gc_rows_deleted_per_req"] = per(a.gcRowsDel - b.gcRowsDel)
	d := a.dyn.Sub(b.dyn)
	for _, k := range dataOps {
		m["dynamo.ops_per_req."+opNames[k]] = per(d.Ops[opNames[k]])
	}
	m["dynamo.items_scanned_per_req"] = per(d.ItemsScanned)
	m["dynamo.bytes_read_per_req"] = per(d.BytesRead)
	m["dynamo.bytes_written_per_req"] = per(d.BytesWritten)
	m["dynamo.cond_failures_per_req"] = per(d.CondFailures)

	m["walstore.fsyncs_per_req"] = per(a.wal.Fsyncs - b.wal.Fsyncs)
	m["walstore.records_per_fsync"] = 0
	if batches := a.wal.SyncBatches - b.wal.SyncBatches; batches > 0 {
		m["walstore.records_per_fsync"] = float64(a.wal.BatchedRecords-b.wal.BatchedRecords) / float64(batches)
	}
	m["walstore.bytes_per_req"] = per(a.wal.BytesAppended - b.wal.BytesAppended)
	m["walstore.snapshots"] = float64(a.wal.Snapshots - b.wal.Snapshots)
	m["walstore.fsync_p50_us"] = 0
	if e.fsync != nil && e.fsync.Count() > 0 {
		m["walstore.fsync_p50_us"] = float64(e.fsync.Median()) / 1e3
	}

	m["pipeline.flushes_per_req"] = per(a.flushes - b.flushes)
	m["pipeline.rows_per_flush"] = 0
	if f := a.flushes - b.flushes; f > 0 {
		m["pipeline.rows_per_flush"] = float64(a.flushRows-b.flushRows) / float64(f)
	}
	m["pipeline.fence_waits_per_req"] = per(a.fenceWaits - b.fenceWaits)

	m["remote.rpcs_per_req"] = per(a.rpc.RPCs - b.rpc.RPCs)
	m["remote.bytes_per_req"] = per(a.rpc.BytesRead + a.rpc.BytesWritten - b.rpc.BytesRead - b.rpc.BytesWritten)
	m["remote.rpc_p50_us"], m["remote.rpc_p99_us"] = 0, 0
	if e.client != nil && e.client.RPCLatency().Count() > 0 {
		m["remote.rpc_p50_us"] = float64(e.client.RPCLatency().Median()) / 1e3
		m["remote.rpc_p99_us"] = float64(e.client.RPCLatency().P99()) / 1e3
	}

	m["go.gc_cpu_ms_per_req"] = (a.gcCPU - b.gcCPU) * 1e3 / n
	m["go.gc_cycles"] = a.gcCycles - b.gcCycles
}

// checkRound runs the output checks once the load has stopped.
func (e *env) checkRound(restarts int64, final bool) error {
	if err := e.d.FsckAll(); err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	if err := e.app.checkState(e.d); err != nil {
		return err
	}
	if e.w.passes > 0 && restarts != 0 {
		return fmt.Errorf("the intent collector restarted %d instances in a fault-free run", restarts)
	}
	switch {
	case e.w.spec:
		return e.checkDurable()
	case e.w.passes > 0 && final:
		return e.checkReclaim()
	}
	return nil
}

// checkDurable drains the overlay and checks the bookings again on a
// deployment over the durable store alone: every acknowledged booking
// must be there.
func (e *env) checkDurable() error {
	e.d.Stop()
	e.d = nil
	d := beldi.NewDeployment(beldi.DeploymentOptions{Store: e.wal, Platform: platform.New(platform.Options{})})
	defer d.Stop()
	if err := e.app.rebuild(d).checkState(d); err != nil {
		return fmt.Errorf("durable store: %w", err)
	}
	return nil
}

// collectorAge is how far the clock moves between a collector pass that
// stamps finished intents and one that may reclaim them: past Config.T.
func (e *env) collectorAge() time.Duration {
	return e.d.Runtime(e.app.entry()).Config().T + 250*time.Millisecond
}

// checkReclaim runs collector passes spaced more than Config.T apart and
// checks that they reclaim every completed intent.
func (e *env) checkReclaim() error {
	if _, _, err := e.collectorPass(); err != nil {
		return err
	}
	e.clk.advance(e.collectorAge())
	if _, _, err := e.collectorPass(); err != nil {
		return err
	}
	for _, fn := range travelFunctions {
		left, err := e.durable.TableItemCount(fn + ".intent")
		if err != nil {
			return fmt.Errorf("intent table of %s: %w", fn, err)
		}
		if left != 0 {
			return fmt.Errorf("%d intents of %s left after collection", left, fn)
		}
	}
	return nil
}
