package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"tero/internal/core"
	"tero/internal/geo"
	"tero/internal/serve"
	"tero/internal/sketch"
	"tero/internal/worldsim"
)

// runTiny runs one workload at tiny size and decodes its result line.
func runTiny(t *testing.T, workload string, trace bool) (out struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}) {
	t.Helper()
	o := opts{workload: workload, seed: 7, seconds: 0.3, trace: trace, sz: tinySizes}
	var stdout, stderr bytes.Buffer
	if code := runOpts(o, &stdout, &stderr); code != 0 {
		t.Fatalf("%s exited %d: %s", workload, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Fatalf("%s: correct %v, attempted %d, failed %d: %s",
			workload, out.Correct, out.Attempted, out.Failed, stderr.String())
	}
	return out
}

func TestWorkloadsTiny(t *testing.T) {
	for _, w := range []string{"ingest", "analyze", "query", "dist"} {
		t.Run(w, func(t *testing.T) {
			timed := runTiny(t, w, false)
			if len(timed.Metrics) != len(endToEndNames) {
				t.Fatalf("timed run reports %d metrics, want %d", len(timed.Metrics), len(endToEndNames))
			}
			for _, name := range endToEndNames {
				if v := timed.Metrics[name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
			traced := runTiny(t, w, true)
			if len(traced.Metrics) != len(perLayerNames) {
				t.Fatalf("traced run reports %d metrics, want %d", len(traced.Metrics), len(perLayerNames))
			}
		})
	}
}

func TestUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}

// testEntry builds one served entry over vals and returns it.
func testEntry(t *testing.T, vals []float64) *serve.Entry {
	t.Helper()
	b := newStreamingBuilder()
	loc := geo.Location{City: "Milan", Region: "Lombardy", Country: "Italy"}
	for i, v := range vals {
		if !b.ObserveReading("s", loc, "Dota 2", queryBase+int64(i)*60, v) {
			t.Fatalf("reading %d refused", i)
		}
	}
	snap, _ := b.BuildDelta()
	if len(snap.Entries) != 1 {
		t.Fatalf("%d entries, want 1", len(snap.Entries))
	}
	return snap.Entries[0]
}

func testReadings() []float64 {
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(20 + (i*37)%90)
	}
	return vals
}

func TestCheckServedRejectsWrongAnswers(t *testing.T) {
	vals := testReadings()
	e := testEntry(t, vals)
	exact := map[string][]float64{e.Key: vals}
	if err := checkServedEntries([]*serve.Entry{e}, exact); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}

	var resp serve.LatencyResponse
	if err := json.Unmarshal(e.BodyJSON(), &resp); err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)

	t.Run("quantile moved by 3 alpha", func(t *testing.T) {
		moved := resp
		moved.Quantiles = append([]serve.QuantileJSON(nil), resp.Quantiles...)
		moved.Quantiles[4].Ms *= 1 + 3*sketch.Alpha
		if checkLatency(moved, sorted) == nil {
			t.Fatal("a quantile 3 alpha off was accepted")
		}
	})
	t.Run("dropped reading", func(t *testing.T) {
		dropped := map[string][]float64{e.Key: vals[1:]}
		if checkServedEntries([]*serve.Entry{e}, dropped) == nil {
			t.Fatal("an entry holding a reading the benchmark never inserted was accepted")
		}
		if checkReadings(10, 9, 0, 0, 9) == nil {
			t.Fatal("a measured reading that vanished was accepted")
		}
	})
	t.Run("binary twin disagrees", func(t *testing.T) {
		bad := resp
		bad.MeanMs++
		if checkBinaryTwin(resp, serve.EncodeLatencyBinary(&bad)) == nil {
			t.Fatal("a binary body that disagrees with its JSON twin was accepted")
		}
		if err := checkBinaryTwin(resp, e.BodyBinary()); err != nil {
			t.Fatalf("the program's own twin rejected: %v", err)
		}
	})
}

// TestReplayRejectsDivergentDocument tampers with one recorded thumbnail
// answer so a replayed pass stores a document the live run did not, and
// requires the pass to fail its check.
func TestReplayRejectsDivergentDocument(t *testing.T) {
	o := opts{workload: "ingest", seed: 7, sz: tinySizes}
	env, err := setupReplay(o, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()

	env.rp.StartReplay()
	clean := newIngestPass(env.rp, env.world, nil)
	clean.run(env.ticks, env.ref)
	if len(clean.failures) > 0 || env.rp.Misses() != 0 {
		t.Fatalf("faithful replay failed: %v (misses %d)", clean.failures, env.rp.Misses())
	}
	if clean.p.Extracted == 0 {
		t.Fatal("tiny world measured nothing")
	}

	// Tamper with a thumbnail that became a measurement document, the
	// first in key order, so the test does not depend on map order.
	measured := make(map[thumbRef]bool)
	for _, d := range clean.p.Docs.C("measurements").Find(nil) {
		anon, _ := d["streamer"].(string)
		at, _ := d["at"].(string)
		measured[thumbRef{clean.anon[anon], at}] = true
	}
	env.rp.mu.Lock()
	keys := make([]replayKey, 0, len(env.rp.rec))
	for k := range env.rp.rec {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].at != keys[j].at {
			return keys[i].at < keys[j].at
		}
		return keys[i].uri < keys[j].uri
	})
	tampered := false
	for _, k := range keys {
		v := env.rp.rec[k]
		if k.method == http.MethodGet && v.status == http.StatusOK && strings.HasPrefix(k.uri, "/thumb/") {
			ref := thumbRef{strings.TrimSuffix(strings.TrimPrefix(k.uri, "/thumb/"), ".pgm"), v.header.Get("X-Thumbnail-At")}
			at, err := time.Parse(time.RFC3339, ref.at)
			if err != nil || !measured[ref] {
				continue
			}
			h := v.header.Clone()
			h.Set("X-Thumbnail-At", at.Add(-time.Minute).UTC().Format(time.RFC3339))
			env.rp.rec[k] = &replayResp{status: v.status, header: h, body: v.body}
			tampered = true
			break
		}
	}
	env.rp.mu.Unlock()
	if !tampered {
		t.Fatal("no thumbnail answer recorded")
	}
	env.rp.StartReplay()
	bad := newIngestPass(env.rp, env.world, nil)
	bad.run(env.ticks, env.ref)
	found := false
	for _, f := range bad.failures {
		found = found || strings.Contains(f, "differ from the live run")
	}
	if !found {
		t.Fatalf("a replayed document that differs from the live run was accepted: %v", bad.failures)
	}
}

func TestCheckAnalysesRejectsLostPoints(t *testing.T) {
	o := opts{workload: "analyze", seed: 7, sz: tinySizes}
	env, err := setupAnalyze(o)
	if err != nil {
		t.Fatal(err)
	}
	as := env.p.Analyze(core.DefaultParams())
	if err := checkAnalyses(as, env.points); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	for k := range env.points {
		env.points[k]++
		break
	}
	if checkAnalyses(as, env.points) == nil {
		t.Fatal("a group missing an input point was accepted")
	}
}

func TestCheckOutcomesRejectsWrongPartition(t *testing.T) {
	want := thumbTruth{thumbs: 100, unknown: 2, lobby: 5, cleanLobby: 3}
	right := passOutcomes{ingested: 100, docs: 80, processed: 98, measured: 80, zero: 4, miss: 14}
	if err := checkOutcomes(right, want); err != nil {
		t.Fatalf("right partition rejected: %v", err)
	}
	wrong := map[string]func(*passOutcomes, *thumbTruth){
		"thumbnail without an outcome": func(o *passOutcomes, _ *thumbTruth) { o.miss--; o.processed-- },
		"thumbnail counted twice":      func(o *passOutcomes, _ *thumbTruth) { o.zero++; o.processed++ },
		"unknown game the world lacks": func(_ *passOutcomes, w *thumbTruth) { w.unknown = 0 },
		"document lost":                func(o *passOutcomes, _ *thumbTruth) { o.docs-- },
		"ingested more than served":    func(o *passOutcomes, _ *thumbTruth) { o.ingested++; o.miss++; o.processed++ },
		"reading from a clean lobby":   func(o *passOutcomes, _ *thumbTruth) { o.cleanLobbyDocs = 1 },
		"clean lobby read as a miss":   func(o *passOutcomes, _ *thumbTruth) { o.zero -= 2; o.miss += 2 },
	}
	for name, mutate := range wrong {
		got, w := right, want
		mutate(&got, &w)
		if checkOutcomes(got, w) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestNoisyFindsSceneNoise(t *testing.T) {
	cfg := worldsim.DefaultConfig(7)
	cfg.Streamers = 20
	w := worldsim.New(cfg)
	loud := worldsim.DefaultRenderOptions()
	loud.NoiseProb, loud.NoiseAmp = 1, 0.05
	quiet := loud
	quiet.NoiseProb = 0
	for _, st := range w.Streamers {
		for _, gs := range w.Sessions(st) {
			for i := range gs.ZeroIdx {
				img, _ := worldsim.RenderDeterministic(gs, i, loud)
				if !noisy(img, gs, i, loud) {
					t.Fatal("a thumbnail rendered with noise was taken as noise-free")
				}
				img, _ = worldsim.RenderDeterministic(gs, i, quiet)
				if noisy(img, gs, i, quiet) {
					t.Fatal("a thumbnail rendered without noise was taken as noisy")
				}
				return
			}
		}
	}
	t.Fatal("the world has no lobby point")
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Fatalf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles %v %v, want 1 4", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := make([]float64, len(parent))
	slower := make([]float64, len(parent))
	for i, v := range parent {
		faster[i] = v * 0.8
		slower[i] = v * 1.3
	}
	if v := compareMetric(parent, faster, true, 0.1).verdict; v != "improved" {
		t.Errorf("20%% faster: %s", v)
	}
	if v := compareMetric(parent, slower, true, 0.1).verdict; v != "regressed" {
		t.Errorf("30%% slower: %s", v)
	}
	if v := compareMetric(parent, parent, true, 0.1).verdict; v != "within bound" {
		t.Errorf("same: %s", v)
	}
	noisy := []float64{50, 150, 80, 120, 60, 140, 90, 110, 70, 130}
	if v := compareMetric(noisy, parent, true, 0.1).verdict; v != "unresolved" {
		t.Errorf("noisy parent: %s", v)
	}
}

func TestKeepCalmDropsStolenUnits(t *testing.T) {
	t0 := time.Unix(1000, 0)
	m := &stealMeter{}
	// Four one-second units; the host steals 30% of the third.
	steal, total := 0.0, 0.0
	for i := 0; i <= 4; i++ {
		m.samples = append(m.samples, cpuSample{at: t0.Add(time.Duration(i) * time.Second), steal: steal, total: total})
		total += 200
		if i == 2 {
			steal += 60
		}
	}
	spans := make([][2]time.Time, 4)
	for i := range spans {
		spans[i] = [2]time.Time{t0.Add(time.Duration(i) * time.Second), t0.Add(time.Duration(i+1) * time.Second)}
	}
	idx, kept := m.keepCalm(spans)
	if len(idx) != 3 || idx[0] != 0 || idx[1] != 1 || idx[2] != 3 || kept != 0.75 {
		t.Fatalf("kept %v (%v), want units 0, 1 and 3", idx, kept)
	}
}
