package main

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"tero/internal/core"
	"tero/internal/docstore"
	"tero/internal/download"
	"tero/internal/kvstore"
	"tero/internal/pipeline"
	"tero/internal/serve"
	"tero/internal/worldsim"
)

// tickEvery is the virtual time between two pipeline ticks of the ingest
// and dist workloads: the production write path's cadence.
const tickEvery = 2 * time.Minute

// nproc bounds every workload's worker goroutines, clients and
// connections.
var nproc = runtime.NumCPU()

// replayWorld is the world the ingest and dist workloads replay: as many
// streamers as it takes for their sessions to show ReplayThumbs thumbnails
// in the replayed window, so every seed gives a pass the same amount of
// work.
func replayWorld(seed int64, sz sizes) *worldsim.World {
	cfg := worldsim.DefaultConfig(seed)
	cfg.Days = 2 // sessions start in each streamer's local evening
	cfg.LocatableFrac = 1
	from := cfg.Start.Add(time.Duration(sz.ReplayFromHour) * time.Hour)
	to := from.Add(time.Duration(sz.ReplayHours) * time.Hour)
	return sizedWorld(cfg, sz.ReplayThumbs, func(w *worldsim.World, st *worldsim.Streamer) int {
		n := 0
		for _, gs := range w.Sessions(st) {
			for _, t := range gs.Times {
				if !t.Before(from) && t.Before(to) {
					n++
				}
			}
		}
		return n
	})
}

// sizedWorld generates the smallest world whose streamers, in order, sum
// to at least target by count. Streamer i of a world does not depend on
// how many streamers follow it, so the chosen world is a prefix of a
// larger one.
func sizedWorld(cfg worldsim.Config, target int, count func(*worldsim.World, *worldsim.Streamer) int) *worldsim.World {
	for n := 64; ; n *= 2 {
		cfg.Streamers = n
		w := worldsim.New(cfg)
		sum := 0
		for i, st := range w.Streamers {
			if sum += count(w, st); sum >= target {
				cfg.Streamers = i + 1
				return worldsim.New(cfg)
			}
		}
	}
}

// replayStart is the virtual instant replay passes start at.
func replayStart(w *worldsim.World, sz sizes) time.Time {
	return w.Cfg.Start.Add(time.Duration(sz.ReplayFromHour) * time.Hour)
}

// replayTicks is how many ticks a pass over the replayed world runs.
func replayTicks(sz sizes) int {
	return int(time.Duration(sz.ReplayHours) * time.Hour / tickEvery)
}

// newIngestPipeline wires a pipeline the way both the single-process
// ingest workload and the dist coordinator's reference run it: queue
// draining claims and window-stamped thumbnails, so the stored documents
// do not depend on which downloader or worker fetched what.
func newIngestPipeline(url string, kv kvstore.KV) *pipeline.Pipeline {
	p := pipeline.NewWithKV(url, nproc, kv)
	p.Concurrency = nproc
	for _, d := range p.Downloaders {
		d.Claim = download.ClaimAll
		d.WindowStamp = true
	}
	return p
}

// newStreamingBuilder returns the streaming builder every workload
// publishes through. Its retention spans more than a replayed world, so
// no reading of a pass expires.
func newStreamingBuilder() *serve.Builder {
	b := serve.NewBuilder(core.DefaultParams())
	b.Concurrency = nproc
	b.EnableStreaming()
	return b
}

// docKey renders a measurement document canonically, without its store
// ID and trace context, for multiset comparison between runs.
func docKey(d docstore.Doc) string {
	keys := make([]string, 0, len(d))
	for k := range d {
		if k == "_id" || k == "trace" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += k + "=" + fmt.Sprint(d[k]) + ";"
	}
	return s
}

// docKeys returns the canonical, sorted measurement documents of a
// pipeline.
func docKeys(p *pipeline.Pipeline) []string {
	docs := p.Docs.C("measurements").Find(nil)
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = docKey(d)
	}
	sort.Strings(out)
	return out
}

// docID is the store ID of the n-th inserted document of a collection.
func docID(n int) string { return "doc" + fmt.Sprintf("%08d", n) }

// anonIndex maps each streamer's pseudonym back to its platform ID.
func anonIndex(p *pipeline.Pipeline, w *worldsim.World) map[string]string {
	m := make(map[string]string, len(w.Streamers))
	for _, st := range w.Streamers {
		m[p.Anonymize(st.ID)] = st.ID
	}
	return m
}

// itoa is strconv.Itoa, short.
func itoa(n int) string { return strconv.Itoa(n) }
