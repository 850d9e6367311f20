package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"tero/internal/core"
	"tero/internal/kvstore"
	"tero/internal/obs/trace"
	"tero/internal/pipeline"
	"tero/internal/twitchsim"
	"tero/internal/worldsim"
)

// analyzeEnv is the analyze workload's set-up: a pipeline holding a stored,
// located measurement history, and the benchmark's own count of it.
type analyzeEnv struct {
	p       *pipeline.Pipeline
	results []pipeline.ThumbResult // the history, in insertion order
	// points is the benchmark's count of input points per {pseudonym, game}.
	points map[[2]string]int
	world  *worldsim.World
}

func (e *analyzeEnv) close() {}

// analyzeHistory draws the measurement history from worldsim sessions:
// every non-lobby thumbnail point of every session, with the observation
// errors (digit drops, confusions, alternative values) OCR would make, of
// as many streamers as it takes to reach AnalyzeReadings readings.
func analyzeHistory(seed int64, sz sizes) (*worldsim.World, []pipeline.ThumbResult) {
	cfg := worldsim.DefaultConfig(seed)
	cfg.Days = sz.AnalyzeDays
	cfg.LocatableFrac = 0.6
	var out []pipeline.ThumbResult
	w := sizedWorld(cfg, sz.AnalyzeReadings, func(w *worldsim.World, st *worldsim.Streamer) int {
		n := 0
		for _, gs := range w.Sessions(st) {
			n += len(gs.Times) - len(gs.ZeroIdx)
		}
		return n
	})
	rng := rand.New(rand.NewSource(seed))
	obsCfg := worldsim.DefaultObservation()
	for _, st := range w.Streamers {
		for _, gs := range w.Sessions(st) {
			s := gs.ToStream(obsCfg, rng)
			for _, pt := range s.Points {
				at := pt.T.UTC()
				out = append(out, pipeline.ThumbResult{
					Key:      st.ID + "/" + at.Format(time.RFC3339),
					Outcome:  pipeline.OutcomeMeasured,
					Ms:       pt.Ms,
					Alt:      pt.Alt,
					HasAlt:   pt.HasAlt,
					Streamer: st.ID,
					Login:    st.Username,
					Game:     gs.Game.Name,
					At:       at.Format(time.RFC3339),
					AtUnix:   at.Unix(),
					AtOK:     true,
				})
			}
		}
	}
	return w, out
}

// storeHistory writes a history through IngestResult in the given order
// and locates every streamer against a live simulator of the world.
func storeHistory(w *worldsim.World, results []pipeline.ThumbResult, kv kvstore.KV) *pipeline.Pipeline {
	platform := twitchsim.New(w)
	defer platform.Close()
	platform.SetAPIRate(1e6, 1e6)
	end := w.Cfg.Start.Add(time.Duration(w.Cfg.Days) * 24 * time.Hour)
	platform.Advance(end.Sub(platform.Now()))
	p := pipeline.NewWithKV(platform.URL(), 1, kv)
	p.Concurrency = nproc
	for _, r := range results {
		p.IngestResult(r, trace.Context{})
	}
	p.LocateStreamers(end)
	return p
}

func setupAnalyze(o opts) (*analyzeEnv, error) {
	w, results := analyzeHistory(o.seed, o.sz)
	p := storeHistory(w, results, kvstore.New())
	env := &analyzeEnv{p: p, results: results, world: w, points: make(map[[2]string]int)}
	for _, r := range results {
		env.points[[2]string{p.Anonymize(r.Streamer), r.Game}]++
	}
	if got := p.Docs.C("measurements").Count(); got != len(results) {
		return nil, fmt.Errorf("stored %d measurements, want %d", got, len(results))
	}
	return env, nil
}

// renderAnalyses is a canonical text form of an analysis run, for
// comparing runs at different concurrency and insertion orders.
func renderAnalyses(as []*core.Analysis) string {
	var sb strings.Builder
	for _, a := range as {
		fmt.Fprintf(&sb, "%v\n", *a)
	}
	return sb.String()
}

// checkAnalyses verifies one analysis run against the benchmark's own
// count of the history: the analyzed groups are exactly the stored
// {streamer, game} pairs, and in every group the kept plus the filtered
// points equal the input points.
func checkAnalyses(as []*core.Analysis, points map[[2]string]int) error {
	seen := make(map[[2]string]bool, len(as))
	for _, a := range as {
		k := [2]string{a.Streamer, a.Game}
		want, ok := points[k]
		if !ok {
			return fmt.Errorf("group %v analyzed but not in the history", k)
		}
		if seen[k] {
			return fmt.Errorf("group %v analyzed twice", k)
		}
		seen[k] = true
		kept, filtered := 0, 0
		for i := range a.Segments {
			s := &a.Segments[i]
			n := s.End - s.Start
			switch {
			case s.Flag == core.FlagAbsorbed, s.Flag == core.FlagCorrected,
				s.Flag == core.FlagNone && s.Stable:
				kept += n
			default:
				filtered += n
			}
		}
		if a.TotalPoints != want || kept+filtered != want || kept != a.KeptPoints {
			return fmt.Errorf("group %v: %d input points, analysis has total %d, kept %d (segments %d) + filtered %d",
				k, want, a.TotalPoints, a.KeptPoints, kept, filtered)
		}
	}
	if len(seen) != len(points) {
		return fmt.Errorf("%d groups analyzed, history has %d", len(seen), len(points))
	}
	return nil
}

// measureAnalyze runs Pipeline.Analyze over the stored history, call
// after call, for at least the given time, and returns each call's
// duration in ms and the last call's output.
func measureAnalyze(p *pipeline.Pipeline, tr *tracer, seconds float64) ([]float64, []*core.Analysis) {
	var callMs []float64
	var last []*core.Analysis
	params := core.DefaultParams()
	start := time.Now()
	for len(callMs) == 0 || time.Since(start).Seconds() < seconds {
		t0 := time.Now()
		last = p.Analyze(params)
		d := time.Since(t0)
		tr.record("pipeline.analyze", d)
		callMs = append(callMs, float64(d)/1e6)
	}
	return callMs, last
}

// calmCalls groups consecutive calls into slices of at least half a
// second and returns the durations of the calls in the slices measured
// while the host left the vCPUs alone (see keepCalm).
func calmCalls(m *stealMeter, start time.Time, callMs []float64) []float64 {
	var spans [][2]time.Time
	var slices [][]float64
	t := start
	var cur []float64
	sliceStart := t
	for _, ms := range callMs {
		t = t.Add(time.Duration(ms * 1e6))
		cur = append(cur, ms)
		if t.Sub(sliceStart) >= rateSlice {
			spans = append(spans, [2]time.Time{sliceStart, t})
			slices = append(slices, cur)
			cur, sliceStart = nil, t
		}
	}
	if len(cur) > 0 {
		spans = append(spans, [2]time.Time{sliceStart, t})
		slices = append(slices, cur)
	}
	idx, _ := m.keepCalm(spans)
	var out []float64
	for _, i := range idx {
		out = append(out, slices[i]...)
	}
	return out
}

// checkAnalyze verifies the analyses against the benchmark's count of the
// history, and reruns them at Concurrency 1 and under a shuffled
// insertion order: all three must agree.
func checkAnalyze(rep *report, env *analyzeEnv, last []*core.Analysis, seed int64) {
	if err := checkAnalyses(last, env.points); err != nil {
		rep.fail("%v", err)
	}
	p := env.p
	params := core.DefaultParams()
	ref := renderAnalyses(last)
	p.Concurrency = 1
	if renderAnalyses(p.Analyze(params)) != ref {
		rep.fail("analysis at Concurrency 1 differs from Concurrency %d", nproc)
	}
	p.Concurrency = nproc
	shuffled := append([]pipeline.ThumbResult(nil), env.results...)
	rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	if renderAnalyses(storeHistory(env.world, shuffled, kvstore.New()).Analyze(params)) != ref {
		rep.fail("analysis under a shuffled insertion order differs")
	}
}

// runAnalyze is the analyze workload.
func runAnalyze(o opts) (*report, error) {
	env, setupS, err := timeSetups(o.sz.SetupReps,
		func() (*analyzeEnv, error) { return setupAnalyze(o) }, (*analyzeEnv).close)
	if err != nil {
		return nil, err
	}
	in := len(env.results)
	rep := &report{}
	if o.trace {
		base, _ := measureAnalyze(env.p, nil, o.seconds/2)
		tr := newTracer()
		stages := map[string]string{"pipeline.analyze": "pipeline.analyze"}
		before := spanSnapshot(stages)
		raw := env.p.KV
		env.p.KV = tracedKV{raw, tr}
		traced, last := measureAnalyze(env.p, tr, o.seconds/2)
		env.p.KV = raw
		// Taken before the checks, whose own Analyze calls the program
		// times but the benchmark does not.
		r := spanRatio(tr, before, stages)
		rep.attempted = int64((len(base) + len(traced)) * len(last))
		checkAnalyze(rep, env, last, o.seed)
		analyzeLayers(rep, tr, env, last, base, traced)
		rep.set("trace.span_ratio", "ratio", r)
		checkSpanRatio(rep, r)
		return rep, nil
	}
	meter := startStealMeter(stealPeriod)
	start := time.Now()
	all, last := measureAnalyze(env.p, nil, o.seconds)
	meter.Stop()
	rep.attempted = int64(len(all) * len(last))
	callMs := calmCalls(meter, start, all)
	rep.set("setup_s", "s", setupS)
	// Per call, at the median call time: a median keeps a burst of time
	// stolen from the VM out of the figure.
	rep.set("throughput_per_s", "1/s", float64(in)/(median(callMs)/1e3))
	rep.set("latency_p50_ms", "ms", pctOf(callMs, 50))
	rep.set("latency_p95_ms", "ms", pctOf(callMs, 95))
	checkAnalyze(rep, env, last, o.seed)
	held := heapMB()
	runtime.KeepAlive(last)
	env.p, last = nil, nil
	rep.set("live_heap_mb", "MB", held-heapMB())
	return rep, nil
}
