package main

import (
	"fmt"
	"net/http"
	"sort"
	"time"

	"tero/internal/download"
	"tero/internal/kvstore"
	"tero/internal/location"
	"tero/internal/obs"
	"tero/internal/pipeline"
	"tero/internal/serve"
	"tero/internal/worldsim"
)

// reading is one measured thumbnail on its way into the serving index, as
// the benchmark accounts for it from the stored measurement document.
type reading struct {
	anon, real, game, at string
	atUnix               int64
	ms                   float64
}

// ingestPass drives one pass of the replayed world through Tero's
// streaming write path and keeps the benchmark's own account of where
// every thumbnail and reading went.
type ingestPass struct {
	rp *Replay
	p  *pipeline.Pipeline
	b  *serve.Builder
	ix *serve.Index
	tr *tracer
	// look resolves locations on the unwrapped store, so the benchmark's
	// own accounting stays out of the traced kvstore numbers.
	look *pipeline.Pipeline
	anon map[string]string
	// fetch runs one tick's download and extraction (single process or
	// through the dist coordinator) and returns the thumbnails it ingested.
	fetch func(i int, t time.Time) (int, error)

	// warmup is how many ticks pass before freshness is recorded, warm
	// the wall time the first of the others began.
	warmup int
	warm   time.Time

	consumed int       // measurement documents accounted so far
	pending  []reading // measured, waiting for a location round
	snap     *serve.Snapshot

	ticks, tickErrs  int
	thumbs, readings int // ingested thumbnails; readings made queryable
	served           int
	unlocatable      int
	fresh            []float64            // ms, one per served reading
	exact            map[string][]float64 // entry key -> served readings
	buildMs          []float64
	swapUs           []float64
	rebuilt, reused  int
	deferredMax      int
	servedList       []servedReading // traced runs only
	failures         []string
	began, ended     time.Time
	// wall is the pass's wall time less benchTime, the time the benchmark
	// spent in its own per-tick accounting; benchMarks record when each
	// accounting step ended and benchTime then.
	wall       time.Duration
	benchTime  time.Duration
	benchMarks []benchMark
}

// benchMark is the end of one accounting step and the pass's benchmark
// time up to it.
type benchMark struct {
	at  time.Time
	cum time.Duration
}

// newIngestPass wires a fresh single-process pipeline against the replay
// server. With a tracer, the program's public interfaces are wrapped for
// the traced run.
func newIngestPass(rp *Replay, w *worldsim.World, tr *tracer) *ingestPass {
	raw := kvstore.New()
	p := newIngestPipeline(rp.URL(), traceKV(raw, tr))
	if tr != nil {
		instrumentPipeline(p, tr)
	}
	ps := newPass(rp, w, p, raw, tr)
	ps.fetch = func(i int, t time.Time) (int, error) {
		var err error
		var n int
		tr.span("pipeline.download", func() { err = p.Tick(t, i%3 == 0) })
		tr.span("pipeline.extract", func() { n = p.ProcessThumbnails() })
		return n, err
	}
	return ps
}

// newPass wraps a wired pipeline; raw is its unwrapped key-value store.
func newPass(rp *Replay, w *worldsim.World, p *pipeline.Pipeline, raw kvstore.KV, tr *tracer) *ingestPass {
	return &ingestPass{
		rp: rp, p: p, tr: tr,
		b:     newStreamingBuilder(),
		ix:    serve.NewIndex(0),
		look:  &pipeline.Pipeline{KV: raw},
		anon:  anonIndex(p, w),
		exact: make(map[string][]float64),
	}
}

// traceKV wraps a store with the tracer, when there is one.
func traceKV(kv kvstore.KV, tr *tracer) kvstore.KV {
	if tr == nil {
		return kv
	}
	return tracedKV{kv, tr}
}

// baseTransport is the process's HTTP transport before a traced dist run
// wraps it: in-process dist workers build their downloaders' clients
// without a transport of their own, so the default one is what reaches
// them.
var baseTransport = http.DefaultTransport

// instrumentPipeline wraps a pipeline's object store, HTTP transports,
// social lookup and OCR engines with the tracer.
func instrumentPipeline(p *pipeline.Pipeline, tr *tracer) {
	p.Objects = tracedObjects{p.Objects, tr}
	rt := tracedTransport{baseTransport, tr}
	for _, d := range p.Downloaders {
		d.Store = p.Objects
		d.HTTP.Transport = rt
	}
	p.API.HTTP.Transport = rt
	if hs, ok := p.Social.(*location.HTTPSocial); ok {
		// Social lookups are timed by the wrapper below, not as downloads.
		hs.HTTP.Transport = baseTransport
	}
	p.Social = tracedSocial{p.Social, tr}
	for i, e := range p.Extractor.Engines {
		p.Extractor.Engines[i] = tracedEngine{e, tr}
	}
}

// run replays every tick of the world and checks the pass.
func (ps *ingestPass) run(ticks int, ref []string) {
	start := time.Now()
	ps.began = start
	t := ps.rp.start
	ps.warm = start.Add(24 * time.Hour)
	for i := 0; i < ticks; i++ {
		if i == ps.warmup {
			ps.warm = time.Now()
		}
		ps.rp.SetNow(t)
		n, err := ps.fetch(i, t)
		ps.thumbs += n
		if err != nil {
			ps.tickErrs++
		}
		ps.publish(t)
		t = t.Add(tickEvery)
	}
	ps.ticks = ticks
	ps.ended = time.Now()
	ps.wall = ps.ended.Sub(start) - ps.benchTime
	ps.check(ref)
}

// publish runs the location round and the streaming publish of one tick,
// swaps the delta snapshot in, and accounts for the readings it served.
func (ps *ingestPass) publish(t time.Time) {
	tr := ps.tr
	tr.span("pipeline.locate", func() { ps.p.LocateStreamers(t) })
	var n int
	tr.span("pipeline.publish_delta", func() { n = ps.p.PublishDeltaAt(ps.b, t) })
	var st serve.DeltaStats
	b0 := time.Now()
	ps.snap, st = ps.b.BuildDelta()
	b1 := time.Now()
	ps.ix.Swap(ps.snap)
	end := time.Now()
	tr.record("serve.build_delta", b1.Sub(b0))
	tr.record("serve.swap", end.Sub(b1))
	ps.buildMs = append(ps.buildMs, float64(b1.Sub(b0))/1e6)
	ps.swapUs = append(ps.swapUs, float64(end.Sub(b1))/1e3)
	ps.rebuilt += st.Rebuilt
	ps.reused += st.Reused
	ps.readings += n
	// The accounting is the benchmark's own work: it is timed in every
	// pass and taken out of the pass's wall time and its freshness figures.
	a0 := time.Now()
	ps.account(end, n)
	a1 := time.Now()
	tr.record("bench.account", a1.Sub(a0))
	ps.benchTime += a1.Sub(a0)
	ps.benchMarks = append(ps.benchMarks, benchMark{a1, ps.benchTime})
}

// benchSince is the benchmark's accounting time since wall time t0.
func (ps *ingestPass) benchSince(t0 time.Time) time.Duration {
	i := sort.Search(len(ps.benchMarks), func(i int) bool { return ps.benchMarks[i].at.After(t0) })
	if i == 0 {
		return ps.benchTime
	}
	return ps.benchTime - ps.benchMarks[i-1].cum
}

// account reads the measurement documents stored since the last tick and
// moves every pending reading whose streamer now has a location into the
// served set: the readings PublishDeltaAt must just have made queryable.
func (ps *ingestPass) account(end time.Time, published int) {
	coll := ps.p.Docs.C("measurements")
	for ps.consumed < ps.p.Extracted {
		ps.consumed++
		d, ok := coll.Get(docID(ps.consumed))
		if !ok {
			ps.fail("measurement document %d missing", ps.consumed)
			continue
		}
		r := reading{}
		r.anon, _ = d["streamer"].(string)
		r.game, _ = d["game"].(string)
		r.at, _ = d["at"].(string)
		r.atUnix, _ = d["atUnix"].(int64)
		r.ms, _ = d["ms"].(float64)
		r.real = ps.anon[r.anon]
		ps.pending = append(ps.pending, r)
	}
	served := 0
	keep := ps.pending[:0]
	for _, r := range ps.pending {
		loc, ok := ps.look.LocationAt(r.anon, time.Unix(r.atUnix, 0).UTC())
		if ok && !loc.IsZero() {
			served++
			key := serve.EntryKey(loc, r.game)
			ps.exact[key] = append(ps.exact[key], r.ms)
			if ps.tr != nil {
				ps.servedList = append(ps.servedList, servedReading{r.anon, r.game, loc, r.atUnix, r.ms})
			}
			if t0, ok := ps.rp.FirstServed(r.real, r.at); ok {
				if !t0.Before(ps.warm) {
					ps.fresh = append(ps.fresh, float64(end.Sub(t0)-ps.benchSince(t0))/1e6)
				}
			} else {
				ps.fail("reading %s@%s has no served thumbnail", r.real, r.at)
			}
			continue
		}
		if v, tried := ps.look.KV.Get("loc:" + r.anon); tried && v == "" {
			ps.unlocatable++
			continue
		}
		keep = append(keep, r)
	}
	ps.pending = keep
	if len(keep) > ps.deferredMax {
		ps.deferredMax = len(keep)
	}
	ps.served += served
	if served != published {
		ps.fail("publish served %d readings, the benchmark's account says %d", published, served)
	}
}

func (ps *ingestPass) fail(format string, args ...any) {
	if len(ps.failures) < 20 {
		ps.failures = append(ps.failures, fmt.Sprintf(format, args...))
	}
}

// downloads is the number of thumbnails the pass's downloaders stored.
func (ps *ingestPass) downloads() int {
	n := 0
	for _, d := range ps.p.Downloaders {
		n += d.Downloads
	}
	return n
}

// check verifies the pass: the stored documents equal the reference run's,
// every measured reading is served, deferred or unlocatable, and every
// served group matches the exact statistics of its readings. The
// thumbnail outcomes are checked against the world by replayEnv.checkPass.
func (ps *ingestPass) check(ref []string) {
	p := ps.p
	if ref != nil {
		if err := sameMultiset(docKeys(p), ref); err != nil {
			ps.fail("measurement documents differ from the live run's: %v", err)
		}
	}
	if n := p.Objects.Size(download.ThumbBucket); n != 0 {
		ps.fail("%d thumbnails left unprocessed", n)
	}
	if err := checkReadings(p.Extracted, ps.served, len(ps.pending), ps.unlocatable, ps.readings); err != nil {
		ps.fail("%v", err)
	}
	if ps.snap != nil {
		if err := checkServedEntries(ps.snap.Entries, ps.exact); err != nil {
			ps.fail("%v", err)
		}
	} else if ps.served > 0 {
		ps.fail("readings served but no snapshot built")
	}
}

// fetchFailures reads the download module's failed-fetch counter.
func fetchFailures() int64 { return obs.C("download_fetch_failures_total").Value() }
