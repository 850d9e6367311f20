package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"sync"
	"time"

	"tero/internal/dist"
	"tero/internal/kvstore"
	"tero/internal/objstore"
	"tero/internal/pipeline"
)

// distPass is one pass of the replayed world through the distributed
// topology: a coordinator pipeline over one loopback kvstore address and
// nproc in-process workers.
type distPass struct {
	*ingestPass
	coord   *dist.Coordinator
	srv     *kvstore.Server
	proxy   *respProxy
	workers []chan error
	tickMs  []float64
}

// newDistPass starts the store, the coordinator and the fleet.
func newDistPass(env *replayEnv, tr *tracer) (*distPass, error) {
	st := kvstore.New()
	srv, err := kvstore.Serve(st, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	objects := objstore.New()
	srv.AttachObjects(objects)
	addr := srv.Addr()
	dp := &distPass{srv: srv}
	if tr != nil {
		// Workers reach the store through a counting proxy, so the traced
		// run sees every round trip on the wire.
		if dp.proxy, err = newRESPProxy(addr, tr); err != nil {
			srv.Close()
			return nil, err
		}
		addr = dp.proxy.Addr()
	}
	p := pipeline.NewWithKV(env.rp.URL(), 1, traceKV(st, tr))
	p.Objects = objects
	p.Concurrency = nproc
	if tr != nil {
		instrumentPipeline(p, tr)
	}
	dp.ingestPass = newPass(env.rp, env.world, p, st, tr)
	dp.coord = dist.NewCoordinator(p, p.KV, objects)
	dp.coord.Announce(env.rp.URL())
	for i := 0; i < nproc; i++ {
		done := make(chan error, 1)
		cfg := dist.WorkerConfig{ID: fmt.Sprintf("w%d", i+1), StoreAddr: addr, WindowStamp: true}
		go func() { done <- dist.RunWorker(cfg) }()
		dp.workers = append(dp.workers, done)
	}
	if err := dp.coord.WaitWorkers(nproc, 30*time.Second); err != nil {
		dp.stop()
		return nil, err
	}
	ingested := 0
	dp.fetch = func(i int, t time.Time) (int, error) {
		t0 := time.Now()
		err := dp.coord.Tick(t, i, i%3 == 0)
		d := time.Since(t0)
		dp.tickMs = append(dp.tickMs, float64(d)/1e6)
		tr.record("dist.tick", d)
		n := dp.coord.Ingested - ingested
		ingested = dp.coord.Ingested
		return n, err
	}
	return dp, nil
}

// stop ends the run, waits for every worker and closes the store.
func (dp *distPass) stop() error {
	dp.coord.EndRun()
	var first error
	for _, done := range dp.workers {
		if err := <-done; err != nil && first == nil {
			first = err
		}
	}
	dp.workers = nil
	if dp.proxy != nil {
		dp.proxy.Close()
	}
	dp.srv.Close()
	return first
}

// checkFleet verifies that every thumbnail the fleet fetched was ingested
// exactly once.
func (dp *distPass) checkFleet() {
	fetched := 0
	for _, ws := range dp.coord.Stats() {
		fetched += ws.Fetches
	}
	served := dp.rp.ServedThumbs()
	if fetched != dp.coord.Ingested || served != fetched || dp.coord.Deduped != 0 {
		dp.fail("fleet fetched %d thumbnails, platform served %d, coordinator ingested %d (%d duplicates)",
			fetched, served, dp.coord.Ingested, dp.coord.Deduped)
	}
}

// distStats is what a dist run measured beyond the ingest totals.
type distStats struct {
	tickMs         []float64
	rounds, makeup int
	imbalance      float64
	rttP50         float64
}

// measureDist replays the recorded world through the distributed topology,
// whole passes at a time, for at least the given time.
func measureDist(env *replayEnv, tr *tracer, seconds float64) (*ingestTotals, *distStats, *distPass, error) {
	tot, ds := &ingestTotals{}, &distStats{}
	var last *distPass
	fails0, serve0, miss0 := fetchFailures(), env.rp.ServeSeconds(), env.rp.Misses()
	start := time.Now()
	for tot.passes == 0 || time.Since(start).Seconds() < seconds {
		last = nil
		m0 := env.rp.Misses()
		env.rp.StartReplay()
		dp, err := newDistPass(env, tr)
		if err != nil {
			return nil, nil, nil, err
		}
		dp.warmup = env.warmup
		dp.run(env.ticks, env.ref)
		if tr != nil {
			if ds.rttP50, err = kvRTT(dp.srv.Addr(), 2000); err != nil {
				dp.fail("kvstore round trips: %v", err)
			}
		}
		if err := dp.stop(); err != nil {
			dp.fail("worker: %v", err)
		}
		dp.checkFleet()
		env.checkPass(dp.ingestPass)
		if d := env.rp.Misses() - m0; d != 0 {
			dp.fail("%d requests missing from the recording", d)
		}
		tot.add(dp.ingestPass)
		ds.tickMs = append(ds.tickMs, dp.tickMs...)
		ds.rounds += dp.coord.Rounds
		ds.makeup += dp.coord.MakeupRounds
		lo, hi := 0, 0
		for i, ws := range dp.coord.Stats() {
			if i == 0 || ws.Fetches < lo {
				lo = ws.Fetches
			}
			if ws.Fetches > hi {
				hi = ws.Fetches
			}
		}
		if lo > 0 {
			ds.imbalance = float64(hi) / float64(lo)
		}
		last = dp
	}
	tot.fetchFails = fetchFailures() - fails0
	tot.replayServe = env.rp.ServeSeconds() - serve0
	tot.misses = env.rp.Misses() - miss0
	return tot, ds, last, nil
}

// runDist is the dist workload.
func runDist(o opts) (*report, error) {
	env, setupS, err := timeSetups(o.sz.SetupReps,
		func() (*replayEnv, error) { return setupReplay(o, o.sz.DistCDNDelay) }, (*replayEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	rep := &report{}
	if o.trace {
		vals := make(map[string]float64)
		if err := distLayers(rep, vals, env, o.sz.DistCDNDelay); err != nil {
			return nil, err
		}
		setLayers(rep, vals)
		return rep, nil
	}
	meter := startStealMeter(stealPeriod)
	tot, ds, last, err := measureDist(env, nil, o.seconds)
	meter.Stop()
	if err != nil {
		return nil, err
	}
	tot.account(rep, ds.rounds)
	rate, fresh := tot.calm(meter)
	rep.set("setup_s", "s", setupS)
	rep.set("throughput_per_s", "1/s", median(rate))
	rep.set("latency_p50_ms", "ms", pctOf(fresh, 50))
	rep.set("latency_p95_ms", "ms", pctOf(fresh, 95))
	held := heapMB()
	runtime.KeepAlive(last)
	last = nil
	rep.set("live_heap_mb", "MB", held-heapMB())
	return rep, nil
}

// respProxy forwards TCP connections to a kvstore server and counts every
// RESP command clients send: the store round trips on the wire.
type respProxy struct {
	ln     net.Listener
	target string
	t      *tracer
	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  []net.Conn
}

func newRESPProxy(target string, t *tracer) (*respProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &respProxy{ln: ln, target: target, t: t}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr is the address clients dial instead of the store's.
func (p *respProxy) Addr() string { return p.ln.Addr().String() }

func (p *respProxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, c, s)
		p.mu.Unlock()
		p.wg.Add(2)
		go func() {
			defer p.wg.Done()
			io.Copy(c, s) //nolint:errcheck // ends when either side closes
			c.Close()
		}()
		go func() {
			defer p.wg.Done()
			p.forward(c, s)
			s.Close()
		}()
	}
}

// forward copies client commands to the server one RESP array at a time,
// counting each.
func (p *respProxy) forward(c, s net.Conn) {
	r := bufio.NewReader(c)
	var frame []byte
	for {
		frame = frame[:0]
		line, err := r.ReadSlice('\n')
		if err != nil || len(line) < 3 || line[0] != '*' {
			return
		}
		frame = append(frame, line...)
		n, err := strconv.Atoi(string(line[1 : len(line)-2]))
		if err != nil {
			return
		}
		for i := 0; i < n; i++ {
			hdr, err := r.ReadSlice('\n')
			if err != nil || len(hdr) < 3 || hdr[0] != '$' {
				return
			}
			frame = append(frame, hdr...)
			size, err := strconv.Atoi(string(hdr[1 : len(hdr)-2]))
			if err != nil || size < 0 {
				return
			}
			start := len(frame)
			frame = append(frame, make([]byte, size+2)...)
			if _, err := io.ReadFull(r, frame[start:]); err != nil {
				return
			}
		}
		p.t.add("kvstore.wire_commands", 1)
		if _, err := s.Write(frame); err != nil {
			return
		}
	}
}

// Close stops accepting, closes every forwarded connection and waits for
// the forwarding goroutines.
func (p *respProxy) Close() {
	p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}
