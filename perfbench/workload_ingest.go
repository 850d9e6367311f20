package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"tero/internal/games"
	"tero/internal/imaging"
	"tero/internal/worldsim"
)

// replayEnv is the set-up shared by the ingest and dist workloads: a
// world, the replay server with its recording, and the measurement
// documents of the recorded live pass.
type replayEnv struct {
	world  *worldsim.World
	rp     *Replay
	ref    []string
	ticks  int
	warmup int
	// facts is what the world says each recorded thumbnail shows; see
	// thumbFacts.
	facts map[thumbRef]thumbFact
}

// thumbFact is what the world says one recorded thumbnail shows.
type thumbFact struct {
	unknown bool // its game is not in the game list
	lobby   bool // it shows the lobby's 0 placeholder
	clean   bool // a lobby placeholder without contrast, occlusion, clock or noise corruption
}

// thumbFacts maps every recorded thumbnail to what the world says it
// shows, from worldsim's sessions and renderer alone. It is computed once,
// on first use, outside any timed pass.
func (e *replayEnv) thumbFacts() map[thumbRef]thumbFact {
	if e.facts != nil {
		return e.facts
	}
	e.facts = make(map[thumbRef]thumbFact)
	sessions := make(map[string][]*worldsim.GenStream)
	opt := worldsim.DefaultRenderOptions() // what the platform renders with
	for _, ref := range e.rp.RecordedThumbs() {
		st := e.world.ByID(ref.streamer)
		at, err := time.Parse(time.RFC3339, ref.at)
		if st == nil || err != nil {
			continue
		}
		ss, ok := sessions[ref.streamer]
		if !ok {
			ss = e.world.Sessions(st)
			sessions[ref.streamer] = ss
		}
		for _, gs := range ss {
			// The platform stamps a thumbnail with its window's opening
			// instant in whole seconds.
			i := sort.Search(len(gs.Times), func(i int) bool { return !gs.Times[i].Truncate(time.Second).Before(at) })
			if i == len(gs.Times) || !gs.Times[i].Truncate(time.Second).Equal(at) {
				continue
			}
			f := thumbFact{unknown: games.ByName(gs.Game.Name) == nil, lobby: gs.ZeroIdx[i]}
			if f.lobby {
				img, truth := worldsim.RenderDeterministic(gs, i, opt)
				f.clean = !truth.LowContrast && !truth.Occluded && !truth.Clock &&
					!noisy(img, gs, i, opt)
			}
			e.facts[ref] = f
			break
		}
	}
	return e.facts
}

// noisy reports whether the platform's scene noise changed any pixel of
// a rendered thumbnail. RenderTruth does not record noise, but the noise
// is drawn last from the thumbnail's own random stream, so the same render
// without it differs from img exactly where noise landed. (A salt-and-pepper
// dot inside a lobby 0 can make it read as 9.)
func noisy(img *imaging.Gray, gs *worldsim.GenStream, i int, opt worldsim.RenderOptions) bool {
	opt.NoiseProb = 0
	quiet, _ := worldsim.RenderDeterministic(gs, i, opt)
	return !bytes.Equal(img.Pix, quiet.Pix)
}

// checkPass checks a pass's thumbnail outcomes against the world's truth
// about the thumbnails the platform served in it.
func (e *replayEnv) checkPass(ps *ingestPass) {
	facts := e.thumbFacts()
	var want thumbTruth
	for _, ref := range e.rp.ServedRefs() {
		f, ok := facts[ref]
		if !ok {
			ps.fail("served thumbnail %s@%s is in no session of the world", ref.streamer, ref.at)
			continue
		}
		want.thumbs++
		if f.unknown {
			want.unknown++
		}
		if f.lobby {
			want.lobby++
		}
		if f.clean {
			want.cleanLobby++
		}
	}
	p := ps.p
	got := passOutcomes{ingested: ps.thumbs, processed: p.Processed, measured: p.Extracted,
		zero: p.Zero, miss: p.Missed, quarantined: p.Quarantined}
	for _, d := range p.Docs.C("measurements").Find(nil) {
		got.docs++
		anon, _ := d["streamer"].(string)
		at, _ := d["at"].(string)
		if facts[thumbRef{ps.anon[anon], at}].clean {
			got.cleanLobbyDocs++
		}
	}
	if err := checkOutcomes(got, want); err != nil {
		ps.fail("%v", err)
	}
}

func (e *replayEnv) close() {
	if e != nil && e.rp != nil {
		e.rp.Close()
	}
}

// setupReplay builds the world and records one single-process pass of it
// against the live simulator. The recording is made anew every run.
func setupReplay(o opts, cdnDelay time.Duration) (*replayEnv, error) {
	w := replayWorld(o.seed, o.sz)
	rp, err := NewReplay(w, replayStart(w, o.sz), cdnDelay)
	if err != nil {
		return nil, err
	}
	env := &replayEnv{world: w, rp: rp, ticks: replayTicks(o.sz), warmup: o.sz.WarmupTicks}
	rec := newIngestPass(rp, w, nil)
	rec.run(env.ticks, nil)
	if len(rec.failures) > 0 {
		env.close()
		return nil, fmt.Errorf("recording pass: %s", rec.failures[0])
	}
	env.ref = docKeys(rec.p)
	return env, nil
}

// ingestTotals sums the passes of a run.
type ingestTotals struct {
	passes             int
	wall               time.Duration
	readings, thumbs   int
	downloads, measure int
	processed          int
	tickErrs, quarant  int
	located, unlocated int
	deferredMax        int
	passRate           []float64 // thumbnails per second, one per pass
	passFresh          [][]float64
	passSpan           [][2]time.Time
	fresh              []float64
	buildMs, swapUs    []float64
	rebuilt, reused    int
	served             []servedReading
	replayServe        float64
	misses             int64
	fetchFails         int64
	failures           []string
}

func (t *ingestTotals) add(ps *ingestPass) {
	t.passes++
	t.wall += ps.wall
	t.readings += ps.readings
	t.thumbs += ps.thumbs
	// Each pass's own rate, so the run reports the median pass: a burst of
	// time stolen from the VM slows some passes, not the figure.
	t.passRate = append(t.passRate, float64(ps.thumbs)/ps.wall.Seconds())
	t.passFresh = append(t.passFresh, ps.fresh)
	t.passSpan = append(t.passSpan, [2]time.Time{ps.began, ps.ended})
	t.downloads += ps.downloads()
	t.measure += ps.p.Extracted
	t.processed += ps.p.Processed
	t.tickErrs += ps.tickErrs
	t.quarant += ps.p.Quarantined
	t.located += ps.p.Located
	t.unlocated += ps.p.Unlocated
	if ps.deferredMax > t.deferredMax {
		t.deferredMax = ps.deferredMax
	}
	t.fresh = append(t.fresh, ps.fresh...)
	t.buildMs = append(t.buildMs, ps.buildMs...)
	t.swapUs = append(t.swapUs, ps.swapUs...)
	t.rebuilt += ps.rebuilt
	t.reused += ps.reused
	t.served = append(t.served, ps.servedList...)
	for _, f := range ps.failures {
		if len(t.failures) < 20 {
			t.failures = append(t.failures, fmt.Sprintf("pass %d: %s", t.passes, f))
		}
	}
}

// measureIngest replays the recorded world through the single-process
// write path, whole passes at a time, for at least the given time.
func measureIngest(env *replayEnv, tr *tracer, seconds float64) (*ingestTotals, *ingestPass) {
	tot := &ingestTotals{}
	var last *ingestPass
	fails0, serve0, miss0 := fetchFailures(), env.rp.ServeSeconds(), env.rp.Misses()
	start := time.Now()
	for tot.passes == 0 || time.Since(start).Seconds() < seconds {
		last = nil // let the previous pass's state go before the next one
		m0 := env.rp.Misses()
		env.rp.StartReplay()
		ps := newIngestPass(env.rp, env.world, tr)
		ps.warmup = env.warmup
		ps.run(env.ticks, env.ref)
		if d := env.rp.Misses() - m0; d != 0 {
			ps.fail("%d requests missing from the recording", d)
		}
		if dl, served := ps.downloads(), env.rp.ServedThumbs(); dl != ps.thumbs || served != dl {
			ps.fail("platform served %d thumbnails, downloaders stored %d, pipeline ingested %d",
				served, dl, ps.thumbs)
		}
		env.checkPass(ps)
		tot.add(ps)
		last = ps
	}
	tot.fetchFails = fetchFailures() - fails0
	tot.replayServe = env.rp.ServeSeconds() - serve0
	tot.misses = env.rp.Misses() - miss0
	return tot, last
}

// calm returns the pass rates and freshness samples of the passes
// measured while the host left the vCPUs alone (see keepCalm).
func (t *ingestTotals) calm(m *stealMeter) (rate, fresh []float64) {
	idx, _ := m.keepCalm(t.passSpan)
	for _, i := range idx {
		rate = append(rate, t.passRate[i])
		fresh = append(fresh, t.passFresh[i]...)
	}
	return rate, fresh
}

// account copies a run's operation counts and check failures into the
// report. Ingest and dist attempt thumbnails and readings; a failed
// thumbnail is a tick error, a failed fetch or a quarantine.
func (t *ingestTotals) account(rep *report, rounds int) {
	rep.attempted += int64(t.thumbs + t.readings + rounds)
	rep.failed += int64(t.tickErrs+t.quarant) + t.fetchFails
	for _, f := range t.failures {
		rep.fail("%s", f)
	}
}

// runIngest is the ingest workload.
func runIngest(o opts) (*report, error) {
	env, setupS, err := timeSetups(o.sz.SetupReps,
		func() (*replayEnv, error) { return setupReplay(o, 0) }, (*replayEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	rep := &report{}
	if o.trace {
		base, _ := measureIngest(env, nil, o.seconds/2)
		base.account(rep, 0)
		tr := newTracer()
		before := spanSnapshot(ingestStages)
		tot, _ := measureIngest(env, tr, o.seconds/2)
		tot.account(rep, 0)
		vals := ingestLayers(rep, tr, env, base, tot, before)
		// The dist topology over the same recording: one traced pass for
		// the dist and kvstore-wire layers, with its own checks.
		if err := distLayers(rep, vals, env, o.sz.DistCDNDelay); err != nil {
			return nil, err
		}
		// The read path beside deltas, from a short query run: the serve
		// read-path and wire layers, with the query checks.
		if err := readPathLayers(rep, vals, o); err != nil {
			return nil, err
		}
		setLayers(rep, vals)
		return rep, nil
	}
	meter := startStealMeter(stealPeriod)
	tot, last := measureIngest(env, nil, o.seconds)
	meter.Stop()
	tot.account(rep, 0)
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
