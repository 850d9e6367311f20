package main

import (
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"tero/internal/imaging"
	"tero/internal/kvstore"
	"tero/internal/location"
	"tero/internal/objstore"
	"tero/internal/ocr"
)

// tracer is the traced run's span recorder. Spans come only from the
// benchmark's own files: wrappers around the program's public calls and
// interfaces. Each span name keeps its count, busy time and individual
// durations in memory; counters keep plain sums. A nil *tracer records
// nothing, so the timed runs call straight through.
type tracer struct {
	mu     sync.Mutex
	spans  map[string]*spanStat
	counts map[string]float64
}

type spanStat struct {
	n     int
	total time.Duration
	durs  []float64 // microseconds
}

func newTracer() *tracer {
	return &tracer{spans: make(map[string]*spanStat), counts: make(map[string]float64)}
}

// span runs fn and records its duration under name.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	t.record(name, time.Since(start))
}

// record adds one duration under name.
func (t *tracer) record(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	s := t.spans[name]
	if s == nil {
		s = &spanStat{}
		t.spans[name] = s
	}
	s.n++
	s.total += d
	s.durs = append(s.durs, float64(d)/float64(time.Microsecond))
	t.mu.Unlock()
}

// add adds v to counter name.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// busy is the total time recorded under name, in seconds.
func (t *tracer) busy(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.spans[name]; s != nil {
		return s.total.Seconds()
	}
	return 0
}

// calls is the number of spans recorded under name.
func (t *tracer) calls(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.spans[name]; s != nil {
		return s.n
	}
	return 0
}

// pct is the p-th percentile (0-100) of name's durations in µs, 0 when
// none were recorded.
func (t *tracer) pct(name string, p float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[name]
	if s == nil || len(s.durs) == 0 {
		return 0
	}
	d := append([]float64(nil), s.durs...)
	sort.Float64s(d)
	return percentile(d, p)
}

// count returns counter name.
func (t *tracer) count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// tracedKV times every key-value operation.
type tracedKV struct {
	kvstore.KV
	t *tracer
}

func (k tracedKV) Set(key, value string) {
	k.t.span("kvstore", func() { k.KV.Set(key, value) })
}

func (k tracedKV) Get(key string) (v string, ok bool) {
	k.t.span("kvstore", func() { v, ok = k.KV.Get(key) })
	return v, ok
}

func (k tracedKV) Del(key string) (ok bool) {
	k.t.span("kvstore", func() { ok = k.KV.Del(key) })
	return ok
}

func (k tracedKV) HSet(key, field, value string) (ok bool) {
	k.t.span("kvstore", func() { ok = k.KV.HSet(key, field, value) })
	return ok
}

func (k tracedKV) HGet(key, field string) (v string, ok bool) {
	k.t.span("kvstore", func() { v, ok = k.KV.HGet(key, field) })
	return v, ok
}

func (k tracedKV) HDel(key, field string) (ok bool) {
	k.t.span("kvstore", func() { ok = k.KV.HDel(key, field) })
	return ok
}

func (k tracedKV) HGetAll(key string) (m map[string]string) {
	k.t.span("kvstore", func() { m = k.KV.HGetAll(key) })
	return m
}

func (k tracedKV) RPush(key string, values ...string) (n int) {
	k.t.span("kvstore", func() { n = k.KV.RPush(key, values...) })
	return n
}

func (k tracedKV) LPop(key string) (v string, ok bool) {
	k.t.span("kvstore", func() { v, ok = k.KV.LPop(key) })
	return v, ok
}

func (k tracedKV) LLen(key string) (n int) {
	k.t.span("kvstore", func() { n = k.KV.LLen(key) })
	return n
}

// tracedObjects times object-store puts and gets.
type tracedObjects struct {
	objstore.API
	t *tracer
}

func (o tracedObjects) Put(bucket, key string, data []byte, meta map[string]string) (etag string) {
	o.t.span("objstore.put", func() { etag = o.API.Put(bucket, key, data, meta) })
	return etag
}

func (o tracedObjects) Get(bucket, key string) (obj *objstore.Object, err error) {
	o.t.span("objstore.get", func() { obj, err = o.API.Get(bucket, key) })
	return obj, err
}

// tracedEngine times one OCR engine.
type tracedEngine struct {
	ocr.Engine
	t *tracer
}

func (e tracedEngine) Recognize(img *imaging.Gray) (r ocr.Result) {
	e.t.span("ocr."+e.Engine.Name(), func() { r = e.Engine.Recognize(img) })
	return r
}

// tracedSocial times social-profile lookups.
type tracedSocial struct {
	location.SocialLookup
	t *tracer
}

func (s tracedSocial) Twitter(u string) (p location.TwitterProfile, ok bool) {
	s.t.span("location.social", func() { p, ok = s.SocialLookup.Twitter(u) })
	return p, ok
}

func (s tracedSocial) Steam(u string) (p location.SteamProfile, ok bool) {
	s.t.span("location.social", func() { p, ok = s.SocialLookup.Steam(u) })
	return p, ok
}

// tracedTransport times HTTP exchanges to the platform, from sending the
// request to reading the whole body, and counts thumbnail bytes.
type tracedTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (tr tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	res, err := tr.base.RoundTrip(req)
	if err != nil {
		tr.t.record("download.http", time.Since(start))
		return res, err
	}
	res.Body = &timedBody{ReadCloser: res.Body, start: start, t: tr.t,
		thumb: req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/thumb/")}
	return res, nil
}

// timedBody ends a traced HTTP exchange when its body is closed.
type timedBody struct {
	io.ReadCloser
	start time.Time
	t     *tracer
	thumb bool
	n     int64
	once  sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.t.record("download.http", time.Since(b.start))
		if b.thumb {
			b.t.add("download.bytes", float64(b.n))
		}
	})
	return err
}
