package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"tero/internal/core"
	"tero/internal/games"
	"tero/internal/geo"
	"tero/internal/imageproc"
	"tero/internal/imaging"
	"tero/internal/kvstore"
	"tero/internal/obs"
)

// layerMetric is one per-layer metric: its name and unit, in the order
// BENCHMARK.json lists them. Every traced run reports all of them; a layer
// a workload does not use reads 0.
type layerMetric struct{ name, unit string }

var layerMetrics = []layerMetric{
	{"download.busy_s", "s"},
	{"download.http_p50_us", "us"},
	{"download.requests", "count"},
	{"download.thumbs", "count"},
	{"download.mb", "MB"},
	{"objstore.put_s", "s"},
	{"objstore.get_s", "s"},
	{"objstore.puts", "count"},
	{"kvstore.ops", "count"},
	{"kvstore.busy_s", "s"},
	{"kvstore.rtt_p50_us", "us"},
	{"imaging.decode_pgm_us", "us"},
	{"imageproc.extract_p50_us", "us"},
	{"imageproc.extract_p99_us", "us"},
	{"imageproc.reprocess_ratio", "ratio"},
	{"ocr.tessera_us", "us"},
	{"ocr.easyscan_us", "us"},
	{"ocr.paddleread_us", "us"},
	{"ocr.calls", "count"},
	{"pipeline.extract_busy_s", "s"},
	{"pipeline.extract_yield", "ratio"},
	{"pipeline.locate_busy_s", "s"},
	{"pipeline.publish_delta_busy_s", "s"},
	{"pipeline.deferred_max", "count"},
	{"pipeline.served_ratio", "ratio"},
	{"pipeline.build_streams_s", "s"},
	{"location.social_lookups", "count"},
	{"location.social_p50_us", "us"},
	{"location.located_ratio", "ratio"},
	{"docstore.scan_s", "s"},
	{"core.analyze_s", "s"},
	{"core.groups", "count"},
	{"core.kept_ratio", "ratio"},
	{"serve.observe_reading_ns", "ns"},
	{"serve.build_delta_p50_ms", "ms"},
	{"serve.build_delta_p99_ms", "ms"},
	{"serve.entries_reused_ratio", "ratio"},
	{"serve.swap_p99_us", "us"},
	{"serve.latency_json_us", "us"},
	{"serve.latency_binary_us", "us"},
	{"serve.not_modified_us", "us"},
	{"serve.compare_us", "us"},
	{"serve.compare_hit_ratio", "ratio"},
	{"serve.bytes_per_req", "B"},
	{"http.wire_p50_us", "us"},
	{"query.open_p50_us", "us"},
	{"query.open_p95_us", "us"},
	{"query.open_p99_us", "us"},
	{"query.generator_late_p99_us", "us"},
	{"dist.tick_p50_ms", "ms"},
	{"dist.tick_p99_ms", "ms"},
	{"dist.rounds", "count"},
	{"dist.makeup_rounds", "count"},
	{"dist.kv_round_trips", "count"},
	{"dist.fetch_imbalance", "ratio"},
	{"replay.serve_s", "s"},
	{"replay.misses", "count"},
	{"run.residue_s", "s"},
	{"latency.p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.span_ratio", "ratio"},
}

func init() {
	for _, m := range layerMetrics {
		perLayerNames = append(perLayerNames, m.name)
	}
}

// setLayers reports every per-layer metric: the given values, 0 for the
// rest.
func setLayers(rep *report, vals map[string]float64) {
	for _, m := range layerMetrics {
		rep.set(m.name, m.unit, vals[m.name])
	}
}

// spanSum is the program's own span_seconds total for a stage.
func spanSum(stage string) float64 {
	return obs.H(obs.Lbl("span_seconds", "stage", stage), obs.DurationBuckets).Sum()
}

// spanRatio cross-checks the benchmark's spans against the program's
// span_seconds histograms over the same calls: the sum of the benchmark's
// busy time over the program's, for the stages both time. The benchmark's
// spans enclose the program's, so the ratio is a little above 1.
func spanRatio(tr *tracer, before map[string]float64, stages map[string]string) float64 {
	mine, theirs := 0.0, 0.0
	for benchName, stage := range stages {
		mine += tr.busy(benchName)
		theirs += spanSum(stage) - before[stage]
	}
	if theirs == 0 {
		return 0
	}
	return mine / theirs
}

// spanSnapshot records the program's span totals before a traced run.
func spanSnapshot(stages map[string]string) map[string]float64 {
	m := make(map[string]float64, len(stages))
	for _, stage := range stages {
		m[stage] = spanSum(stage)
	}
	return m
}

// checkSpanRatio flags a gross disagreement between the two timings.
func checkSpanRatio(rep *report, r float64) {
	if r < 0.95 || r > 1.5 {
		rep.fail("benchmark spans sum to %.3f of the program's span_seconds", r)
	}
}

// thumbSample is one recorded thumbnail with its game, for layer passes.
type thumbSample struct {
	data []byte
	game *games.Game
}

// thumbSamples takes up to max recorded thumbnails, in a fixed order, and
// finds each one's game from the world's sessions.
func thumbSamples(env *replayEnv, max int) []thumbSample {
	env.rp.mu.RLock()
	keys := make([]replayKey, 0)
	for k, v := range env.rp.rec {
		if k.method == http.MethodGet && v.status == http.StatusOK && strings.HasPrefix(k.uri, "/thumb/") {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].at != keys[j].at {
			return keys[i].at < keys[j].at
		}
		return keys[i].uri < keys[j].uri
	})
	if len(keys) > max {
		keys = keys[:max]
	}
	out := make([]thumbSample, 0, len(keys))
	for _, k := range keys {
		resp := env.rp.rec[k]
		id := strings.TrimSuffix(strings.TrimPrefix(k.uri, "/thumb/"), ".pgm")
		at, err := time.Parse(time.RFC3339, resp.header.Get("X-Thumbnail-At"))
		st := env.world.ByID(id)
		if err != nil || st == nil {
			continue
		}
		for _, gs := range env.world.Sessions(st) {
			if n := len(gs.Times); n > 0 && !at.Before(gs.Times[0]) && !at.After(gs.Times[n-1]) {
				out = append(out, thumbSample{data: resp.body, game: gs.Game})
				break
			}
		}
	}
	env.rp.mu.RUnlock()
	return out
}

// extractionLayers re-times PGM decoding, Extract and each OCR engine on
// the run's own thumbnails.
func extractionLayers(vals map[string]float64, samples []thumbSample) {
	tr := newTracer()
	x := imageproc.New()
	for i, e := range x.Engines {
		x.Engines[i] = tracedEngine{e, tr}
	}
	reprocessed := 0
	for _, s := range samples {
		t0 := time.Now()
		img, err := imaging.DecodePGM(bytes.NewReader(s.data))
		tr.record("decode", time.Since(t0))
		if err != nil {
			continue
		}
		calls := tr.calls("ocr.tessera")
		t1 := time.Now()
		x.Extract(img, s.game)
		tr.record("extract", time.Since(t1))
		imaging.Recycle(img)
		if tr.calls("ocr.tessera")-calls > 1 {
			reprocessed++
		}
	}
	n := tr.calls("extract")
	if n == 0 {
		return
	}
	vals["imaging.decode_pgm_us"] = tr.pct("decode", 50)
	vals["imageproc.extract_p50_us"] = tr.pct("extract", 50)
	vals["imageproc.extract_p99_us"] = tr.pct("extract", 99)
	vals["imageproc.reprocess_ratio"] = float64(reprocessed) / float64(n)
	vals["ocr.tessera_us"] = tr.pct("ocr.tessera", 50)
	vals["ocr.easyscan_us"] = tr.pct("ocr.easyscan", 50)
	vals["ocr.paddleread_us"] = tr.pct("ocr.paddleread", 50)
}

// writeLayers fills the serve write-path metrics of an ingest-style run
// and re-times ObserveReading on the run's own served readings.
func writeLayers(vals map[string]float64, tot *ingestTotals, served []servedReading) {
	vals["serve.build_delta_p50_ms"] = pctOf(tot.buildMs, 50)
	vals["serve.build_delta_p99_ms"] = pctOf(tot.buildMs, 99)
	vals["serve.swap_p99_us"] = pctOf(tot.swapUs, 99)
	if n := tot.rebuilt + tot.reused; n > 0 {
		vals["serve.entries_reused_ratio"] = float64(tot.reused) / float64(n)
	}
	if len(served) > 0 {
		b := newStreamingBuilder()
		t0 := time.Now()
		for _, r := range served {
			b.ObserveReading(r.anon, r.loc, r.game, r.atUnix, r.ms)
		}
		vals["serve.observe_reading_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(len(served))
	}
}

// servedReading is one reading the benchmark saw enter the index, kept in
// traced runs for the ObserveReading layer pass.
type servedReading struct {
	anon, game string
	loc        geo.Location
	atUnix     int64
	ms         float64
}

// commonIngestLayers fills what the ingest and dist workloads share.
func commonIngestLayers(vals map[string]float64, tr *tracer, env *replayEnv, tot *ingestTotals, served []servedReading) {
	vals["download.http_p50_us"] = tr.pct("download.http", 50)
	vals["download.requests"] = float64(tr.calls("download.http"))
	vals["download.thumbs"] = float64(tot.thumbs)
	vals["download.mb"] = tr.count("download.bytes") / (1 << 20)
	vals["objstore.put_s"] = tr.busy("objstore.put")
	vals["objstore.get_s"] = tr.busy("objstore.get")
	vals["objstore.puts"] = float64(tr.calls("objstore.put"))
	vals["kvstore.ops"] = float64(tr.calls("kvstore"))
	vals["kvstore.busy_s"] = tr.busy("kvstore")
	vals["ocr.calls"] = float64(tr.calls("ocr.tessera") + tr.calls("ocr.easyscan") + tr.calls("ocr.paddleread"))
	if tot.processed > 0 {
		vals["pipeline.extract_yield"] = float64(tot.measure) / float64(tot.processed)
	}
	vals["pipeline.locate_busy_s"] = tr.busy("pipeline.locate")
	vals["pipeline.publish_delta_busy_s"] = tr.busy("pipeline.publish_delta")
	vals["pipeline.deferred_max"] = float64(tot.deferredMax)
	if tot.thumbs > 0 {
		vals["pipeline.served_ratio"] = float64(tot.readings) / float64(tot.thumbs)
	}
	vals["location.social_lookups"] = float64(tr.calls("location.social"))
	vals["location.social_p50_us"] = tr.pct("location.social", 50)
	if n := tot.located + tot.unlocated; n > 0 {
		vals["location.located_ratio"] = float64(tot.located) / float64(n)
	}
	extractionLayers(vals, thumbSamples(env, 600))
	writeLayers(vals, tot, served)
	vals["replay.serve_s"] = tot.replayServe
	vals["replay.misses"] = float64(tot.misses)
}

// perPassNames are the per-layer counts and busy times an ingest or dist
// run reports per pass over the replayed world, so runs that fit a
// different number of passes into their time compare directly.
var perPassNames = []string{
	"download.busy_s", "download.requests", "download.thumbs", "download.mb",
	"objstore.put_s", "objstore.get_s", "objstore.puts", "kvstore.ops", "kvstore.busy_s",
	"ocr.calls", "pipeline.extract_busy_s", "pipeline.locate_busy_s",
	"pipeline.publish_delta_busy_s", "location.social_lookups", "replay.serve_s",
	"run.residue_s",
}

// perPass divides the per-pass metrics by the number of passes.
func perPassValues(vals map[string]float64, passes int) {
	if passes == 0 {
		return
	}
	for _, name := range perPassNames {
		vals[name] /= float64(passes)
	}
}

// ingestLayers returns the per-layer metrics of the traced ingest run.
func ingestLayers(rep *report, tr *tracer, env *replayEnv, base, tot *ingestTotals, before map[string]float64) map[string]float64 {
	vals := make(map[string]float64)
	commonIngestLayers(vals, tr, env, tot, tot.served)
	vals["download.busy_s"] = tr.busy("pipeline.download")
	vals["pipeline.extract_busy_s"] = tr.busy("pipeline.extract")
	blocking := tr.busy("pipeline.download") + tr.busy("pipeline.extract") + tr.busy("pipeline.locate") +
		tr.busy("pipeline.publish_delta") + tr.busy("serve.build_delta") + tr.busy("serve.swap")
	// tot.wall already leaves out the benchmark's own accounting.
	vals["run.residue_s"] = tot.wall.Seconds() - blocking
	vals["trace.overhead_ratio"] = perPass(tot) / perPass(base)
	vals["latency.p99_ms"] = pctOf(base.fresh, 99)
	perPassValues(vals, tot.passes)
	r := spanRatio(tr, before, ingestStages)
	vals["trace.span_ratio"] = r
	checkSpanRatio(rep, r)
	return vals
}

// ingestStages maps the benchmark's span names to the program's stages
// they enclose.
var ingestStages = map[string]string{
	"pipeline.download":      "pipeline.download",
	"pipeline.extract":       "pipeline.extract",
	"pipeline.locate":        "pipeline.locate",
	"pipeline.publish_delta": "pipeline.publish_delta",
	"serve.build_delta":      "serve.build_delta",
}

// perPass is the mean wall time of one pass.
func perPass(t *ingestTotals) float64 {
	if t.passes == 0 {
		return 0
	}
	return t.wall.Seconds() / float64(t.passes)
}

// distLayers runs one traced pass of the recorded world through the dist
// topology, with the replay platform's CDN delay on, checks it like a dist
// run and fills the dist and kvstore-wire layers.
func distLayers(rep *report, vals map[string]float64, env *replayEnv, cdnDelay time.Duration) error {
	tr := newTracer()
	env.rp.SetCDNDelay(cdnDelay)
	// In-process workers' downloaders use the default transport.
	http.DefaultTransport = tracedTransport{baseTransport, tr}
	tot, ds, _, err := measureDist(env, tr, 0)
	http.DefaultTransport = baseTransport
	env.rp.SetCDNDelay(0)
	if err != nil {
		return err
	}
	tot.account(rep, ds.rounds)
	passes := float64(tot.passes)
	vals["kvstore.rtt_p50_us"] = ds.rttP50
	vals["dist.tick_p50_ms"] = pctOf(ds.tickMs, 50)
	vals["dist.tick_p99_ms"] = pctOf(ds.tickMs, 99)
	vals["dist.rounds"] = float64(ds.rounds) / passes
	vals["dist.makeup_rounds"] = float64(ds.makeup) / passes
	vals["dist.kv_round_trips"] = tr.count("kvstore.wire_commands") / passes
	vals["dist.fetch_imbalance"] = ds.imbalance
	return nil
}

// kvRTT times round trips to a kvstore server over TCP and returns the
// median in µs.
func kvRTT(addr string, n int) (float64, error) {
	c, err := kvstore.DialStore(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	c.Set("perfbench:ping", "1")
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		c.Get("perfbench:ping")
		d[i] = float64(time.Since(t0)) / 1e3
	}
	return pctOf(d, 50), nil
}

// analyzeLayers reports the traced analyze run, re-timing the stages of
// Pipeline.Analyze on their own over the same stored history.
func analyzeLayers(rep *report, tr *tracer, env *analyzeEnv, last []*core.Analysis, base, traced []float64) {
	vals := make(map[string]float64)
	p := env.p
	meas := p.Docs.C("measurements")
	t0 := time.Now()
	for _, s := range meas.Distinct("streamer") {
		meas.FindEq("streamer", s)
	}
	vals["docstore.scan_s"] = time.Since(t0).Seconds()
	t1 := time.Now()
	streams := p.BuildStreams()
	vals["pipeline.build_streams_s"] = time.Since(t1).Seconds()
	type key struct{ streamer, game string }
	grouped := make(map[key][]core.Stream)
	var order []key
	for _, s := range streams {
		k := key{s.Streamer, s.Game}
		if _, ok := grouped[k]; !ok {
			order = append(order, k)
		}
		grouped[k] = append(grouped[k], s)
	}
	t2 := time.Now()
	for _, k := range order {
		core.Analyze(grouped[k], core.DefaultParams())
	}
	vals["core.analyze_s"] = time.Since(t2).Seconds()
	vals["core.groups"] = float64(len(last))
	kept, total := 0, 0
	for _, a := range last {
		kept += a.KeptPoints
		total += a.TotalPoints
	}
	if total > 0 {
		vals["core.kept_ratio"] = float64(kept) / float64(total)
	}
	calls := float64(len(traced))
	vals["kvstore.ops"] = float64(tr.calls("kvstore")) / calls
	vals["kvstore.busy_s"] = tr.busy("kvstore") / calls
	if p.Located+p.Unlocated > 0 {
		vals["location.located_ratio"] = float64(p.Located) / float64(p.Located+p.Unlocated)
	}
	// One Analyze call is BuildStreams, then core.Analyze per group on the
	// worker pool: what the two re-timed stages do not explain.
	vals["run.residue_s"] = median(traced)/1e3 - vals["pipeline.build_streams_s"] - vals["core.analyze_s"]/float64(nproc)
	vals["trace.overhead_ratio"] = median(traced) / median(base)
	vals["latency.p99_ms"] = pctOf(base, 99)
	setLayers(rep, vals)
}

// queryLayers reports the traced query run: the run's own mix replayed
// through in-process ServeHTTP, the wire's share, and the write path's
// numbers from the publisher.
func queryLayers(rep *report, tr *tracer, env *queryEnv, base, run *queryRun, o opts) {
	vals := make(map[string]float64)
	readLayers(vals, env, base, run, o)
	vals["latency.p99_ms"] = pctOf(base.closedLat, 99) / 1e3
	vals["serve.build_delta_p50_ms"] = tr.pct("serve.build_delta", 50) / 1e3
	vals["serve.build_delta_p99_ms"] = tr.pct("serve.build_delta", 99) / 1e3
	vals["serve.swap_p99_us"] = tr.pct("serve.swap", 99)
	if n := tr.count("serve.entries_rebuilt") + tr.count("serve.entries_reused"); n > 0 {
		vals["serve.entries_reused_ratio"] = tr.count("serve.entries_reused") / n
	}
	if n := tr.calls("serve.observe_reading"); n > 0 {
		vals["serve.observe_reading_ns"] = tr.busy("serve.observe_reading") * 1e9 / float64(n*5)
	}
	vals["run.residue_s"] = run.closedWall.Seconds() - run.closedBusy.Seconds()/float64(nproc)
	vals["trace.overhead_ratio"] = (float64(base.closedReqs) / base.closedWall.Seconds()) /
		(float64(run.closedReqs) / run.closedWall.Seconds())
	setLayers(rep, vals)
}

// readPassSeconds is how long the traced ingest run serves the query mix
// for the read-path layers.
const readPassSeconds = 4

// readPathLayers sets up the query workload's index and server, serves
// the query mix for readPassSeconds and fills the serve read-path and
// wire layers, with the query checks.
func readPathLayers(rep *report, vals map[string]float64, o opts) error {
	env, err := setupQuery(o)
	if err != nil {
		return err
	}
	defer env.close()
	short := o
	short.seconds = readPassSeconds
	run := env.runLoops(short, nil)
	run.account(rep)
	if err := env.checkIndex(); err != nil {
		rep.fail("%v", err)
	}
	readLayers(vals, env, run, run, o)
	return nil
}

// readLayers re-times the run's own query mix through in-process
// ServeHTTP and fills the read-path and wire layers; open-loop figures
// come from base.
func readLayers(vals map[string]float64, env *queryEnv, base, run *queryRun, o opts) {
	c := newClient(env, o.seed, 0, o.sz)
	inproc := newTracer()
	var all []float64
	for i := 0; i < 20000; i++ {
		r := c.next()
		req := env.httpRequest("", r)
		w := httptest.NewRecorder()
		t0 := time.Now()
		env.srv.ServeHTTP(w, req)
		d := time.Since(t0)
		inproc.record(kindNames[r.kind], d)
		all = append(all, float64(d)/1e3)
		if r.kind == kindJSON && w.Code == http.StatusOK {
			c.etags[r.group] = w.Header().Get("ETag")
		}
	}
	vals["serve.latency_json_us"] = inproc.pct("latency_json", 50)
	vals["serve.latency_binary_us"] = inproc.pct("latency_binary", 50)
	vals["serve.not_modified_us"] = inproc.pct("not_modified", 50)
	vals["serve.compare_us"] = inproc.pct("compare", 50)
	vals["serve.compare_hit_ratio"] = run.cacheHitRate
	if run.attempts > 0 {
		vals["serve.bytes_per_req"] = float64(run.bytes) / float64(run.attempts)
	}
	var tcp []float64
	for _, k := range run.byKind {
		tcp = append(tcp, k...)
	}
	vals["http.wire_p50_us"] = pctOf(tcp, 50) - pctOf(all, 50)
	vals["query.generator_late_p99_us"] = pctOf(run.late, 99)
	vals["query.open_p50_us"] = pctOf(base.openLat, 50)
	vals["query.open_p95_us"] = pctOf(base.openLat, 95)
	vals["query.open_p99_us"] = pctOf(base.openLat, 99)
}
