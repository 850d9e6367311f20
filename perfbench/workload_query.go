package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"tero/internal/games"
	"tero/internal/geo"
	"tero/internal/obs"
	"tero/internal/serve"
	"tero/internal/sketch"
)

// The query workload's request kinds.
const (
	kindJSON = iota
	kindBinary
	kindRevalidate
	kindCompare
	numKinds
)

var kindNames = [numKinds]string{"latency_json", "latency_binary", "not_modified", "compare"}

// queryBase is the virtual instant the generated readings start at.
const queryBase = int64(1_654_041_600) // 2022-06-01T00:00:00Z

// groupVersion is one published state of a group: its reading count and
// when it was current (start: before the swap that published it; end:
// after the swap that replaced it, zero while current).
type groupVersion struct {
	n          int
	start, end time.Time
}

// queryGroup is the benchmark's exact model of one served group.
type queryGroup struct {
	loc      geo.Location
	game     string
	key      string
	vals     []float64 // every reading inserted, in insertion order
	versions []groupVersion
	// Bodies verified so far, by ETag, and which reading count each ETag
	// stands for.
	verified map[string][]byte
	etagN    map[string]int
	nETag    map[[2]int]string // {n, representation} -> ETag
	twin     map[int]serve.LatencyResponse
	twinBin  map[int]serve.LatencyResponse
	// sorted caches the ascending first n readings, by n.
	sorted map[int][]float64
}

// sortedAt returns the group's first n readings in ascending order.
func (g *queryGroup) sortedAt(n int) []float64 {
	if s, ok := g.sorted[n]; ok {
		return s
	}
	s := append([]float64(nil), g.vals[:n]...)
	sort.Float64s(s)
	g.sorted[n] = s
	return s
}

// queryModel holds every group and the pairs the compare requests draw.
type queryModel struct {
	mu     sync.Mutex
	groups []*queryGroup
	byKey  map[string]*queryGroup
	pairs  [][2]int
	rng    *rand.Rand // the publisher's reading generator
	base   []float64  // per-group base latency
	swaps  int
}

// newQueryModel generates the groups, their initial readings and the
// compare pairs from the seed.
func newQueryModel(seed int64, sz sizes) *queryModel {
	rng := rand.New(rand.NewSource(seed))
	places := geo.World().Places()
	m := &queryModel{byKey: make(map[string]*queryGroup), rng: rand.New(rand.NewSource(seed + 1))}
	for len(m.groups) < sz.QueryGroups {
		pl := places[rng.Intn(len(places))]
		g := games.All[rng.Intn(len(games.All))]
		loc := pl.Location()
		key := serve.EntryKey(loc, g.Name)
		if loc.IsZero() || m.byKey[key] != nil {
			continue
		}
		qg := &queryGroup{loc: loc, game: g.Name, key: key,
			verified: make(map[string][]byte), etagN: make(map[string]int),
			nETag: make(map[[2]int]string), twin: make(map[int]serve.LatencyResponse),
			twinBin: make(map[int]serve.LatencyResponse), sorted: make(map[int][]float64)}
		m.groups = append(m.groups, qg)
		m.byKey[key] = qg
		m.base = append(m.base, 15+rng.Float64()*150)
	}
	for gi, g := range m.groups {
		for i := 0; i < sz.QueryReadings; i++ {
			g.vals = append(g.vals, m.draw(rng, gi))
		}
	}
	for len(m.pairs) < sz.QueryPairs {
		a, b := rng.Intn(len(m.groups)), rng.Intn(len(m.groups))
		if a != b {
			m.pairs = append(m.pairs, [2]int{a, b})
		}
	}
	return m
}

// draw is one integer-millisecond reading of group gi.
func (m *queryModel) draw(rng *rand.Rand, gi int) float64 {
	return math.Max(1, math.Round(m.base[gi]+rng.NormFloat64()*8))
}

// streamer names the pseudonymous streamer behind the i-th reading of a
// group (ten streamers per group).
func streamer(gi, i int) string { return fmt.Sprintf("q%05d-%d", gi, i%10) }

// observe feeds the group's readings from index from on into the builder.
func (m *queryModel) observe(b *serve.Builder, gi, from int) error {
	g := m.groups[gi]
	for i := from; i < len(g.vals); i++ {
		at := queryBase + int64(i)*60
		if !b.ObserveReading(streamer(gi, i), g.loc, g.game, at, g.vals[i]) {
			return fmt.Errorf("reading %d of %s not accepted", i, g.key)
		}
	}
	return nil
}

// queryEnv is the query workload's set-up: the model, the serving stack
// and its loopback HTTP server.
type queryEnv struct {
	m   *queryModel
	b   *serve.Builder
	ix  *serve.Index
	srv *serve.Server
	hs  *http.Server
	url string
	ln  net.Listener
	// done closes when the HTTP server has stopped.
	done chan struct{}
}

func (e *queryEnv) close() {
	if e == nil || e.hs == nil {
		return
	}
	e.hs.Shutdown(context.Background()) //nolint:errcheck // nothing left to drain
	<-e.done
}

func setupQuery(o opts) (*queryEnv, error) {
	m := newQueryModel(o.seed, o.sz)
	b := newStreamingBuilder()
	for gi := range m.groups {
		if err := m.observe(b, gi, 0); err != nil {
			return nil, err
		}
	}
	ix := serve.NewIndex(0)
	snap, _ := b.BuildDelta()
	ix.Swap(snap)
	now := time.Now()
	for _, g := range m.groups {
		g.versions = append(g.versions, groupVersion{n: len(g.vals), start: now})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env := &queryEnv{m: m, b: b, ix: ix, srv: serve.NewServer(ix), ln: ln,
		url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	env.hs = &http.Server{Handler: env.srv}
	go func() {
		defer close(env.done)
		env.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Shutdown
	}()
	return env, nil
}

// publishOnce adds fresh readings to a few groups, builds the delta and
// swaps it in, recording the new versions before the swap and closing the
// old ones after it.
func (e *queryEnv) publishOnce(tr *tracer) error {
	m := e.m
	const groupsPerSwap, readingsPerGroup = 10, 5
	m.mu.Lock()
	t0 := time.Now()
	changed := make([]int, 0, groupsPerSwap)
	for len(changed) < groupsPerSwap {
		gi := m.rng.Intn(len(m.groups))
		dup := false
		for _, c := range changed {
			dup = dup || c == gi
		}
		if dup {
			continue
		}
		changed = append(changed, gi)
		g := m.groups[gi]
		from := len(g.vals)
		for i := 0; i < readingsPerGroup; i++ {
			g.vals = append(g.vals, m.draw(m.rng, gi))
		}
		var err error
		tr.span("serve.observe_reading", func() { err = m.observe(e.b, gi, from) })
		if err != nil {
			m.mu.Unlock()
			return err
		}
		g.versions = append(g.versions, groupVersion{n: len(g.vals), start: t0})
	}
	m.swaps++
	m.mu.Unlock()

	b0 := time.Now()
	snap, st := e.b.BuildDelta()
	b1 := time.Now()
	e.ix.Swap(snap)
	t1 := time.Now()
	tr.record("serve.build_delta", b1.Sub(b0))
	tr.record("serve.swap", t1.Sub(b1))
	tr.add("serve.entries_rebuilt", float64(st.Rebuilt))
	tr.add("serve.entries_reused", float64(st.Reused))

	m.mu.Lock()
	for _, gi := range changed {
		vs := m.groups[gi].versions
		vs[len(vs)-2].end = t1
	}
	m.mu.Unlock()
	return nil
}

// request is one generated query.
type request struct {
	kind  int
	group int // latency kinds
	pair  int // compare
	etag  string
}

// answer is one answer the loops received, kept to be checked after them
// so that checking is not timed. etag and body index the client's
// distinct ETags and bodies; sent and recv count from the client's epoch.
type answer struct {
	req        request
	status     int32
	etag, body int32
	sent, recv time.Duration
}

// client is one HTTP client of the query workload, with its own
// connection, request stream and remembered ETags.
type client struct {
	env   *queryEnv
	http  *http.Client
	zipfG *rand.Zipf
	zipfP *rand.Zipf
	etags map[int]string
	// seq counts the requests drawn, latN the plain latency queries among
	// them.
	seq, latN int
	// freeAt is when the client's last request completed.
	freeAt time.Time

	// answers in the order received; etags and bodies hold each distinct
	// ETag and body once.
	epoch   time.Time
	answers []answer
	tags    []string
	tagID   map[string]int32
	bodies  [][]byte
	bodyID  map[string]int32

	lat       []float64 // µs, single requests
	closedLat []float64 // µs from batch send, pipelined requests
	closedAt  []time.Time
	late      []float64 // µs, open loop only
	byKind    [numKinds][]float64
	bytes     int64
	attempts  int
	failures  int
	errs      []string
}

func newClient(env *queryEnv, seed int64, id int, sz sizes) *client {
	rng := rand.New(rand.NewSource(seed*1000 + int64(id)))
	return &client{
		env: env,
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}},
		zipfG:  rand.NewZipf(rng, sz.QuerySkew, 1, uint64(len(env.m.groups)-1)),
		zipfP:  rand.NewZipf(rng, sz.QuerySkew, 1, uint64(len(env.m.pairs)-1)),
		etags:  make(map[int]string),
		epoch:  time.Now(),
		tagID:  make(map[string]int32),
		bodyID: make(map[string]int32),
	}
}

// The request mix is serve.LoadGen's default: every compareEvery-th
// request a /v1/compare, every revalidateEvery-th of the rest an
// If-None-Match revalidation.
const compareEvery, revalidateEvery = 8, 4

// next draws the client's next request. As in serve.LoadGen, a
// revalidation of a group the client holds no ETag for is sent as a plain
// query. LoadGen sends every plain query as JSON or every one as binary;
// here they alternate, so one run covers both representations. Keys are
// drawn Zipf(QuerySkew), where LoadGen goes round-robin, so that popular
// compare pairs stay in the server's compare LRU and rare ones miss it.
func (c *client) next() request {
	i := c.seq
	c.seq++
	r := request{group: int(c.zipfG.Uint64())}
	switch {
	case i%compareEvery == compareEvery-1:
		r.kind = kindCompare
		r.pair = int(c.zipfP.Uint64())
		return r
	case i%revalidateEvery == revalidateEvery-1 && c.etags[r.group] != "":
		r.kind = kindRevalidate
		r.etag = c.etags[r.group]
		return r
	}
	r.kind = kindJSON + c.latN%2
	c.latN++
	return r
}

// httpRequest renders a request for the server at base.
func (e *queryEnv) httpRequest(base string, r request) *http.Request {
	m := e.m
	var u string
	if r.kind == kindCompare {
		a, b := m.groups[m.pairs[r.pair][0]], m.groups[m.pairs[r.pair][1]]
		u = base + "/v1/compare?a=" + url.QueryEscape(a.loc.Key()+"::"+a.game) +
			"&b=" + url.QueryEscape(b.loc.Key()+"::"+b.game)
	} else {
		g := m.groups[r.group]
		u = base + "/v1/latency?location=" + url.QueryEscape(g.loc.Key()) +
			"&game=" + url.QueryEscape(g.game)
	}
	req, _ := http.NewRequest(http.MethodGet, u, nil)
	if r.kind == kindBinary {
		req.Header.Set("Accept", serve.ContentTypeBinary)
	}
	if r.kind == kindRevalidate {
		req.Header.Set("If-None-Match", r.etag)
	}
	return req
}

// do sends one request over TCP, times it from due and checks the answer.
func (c *client) do(r request, due time.Time) {
	c.attempts++
	sent := time.Now()
	res, err := c.http.Do(c.env.httpRequest(c.env.url, r))
	if err != nil {
		c.failed("transport: %v", err)
		return
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	recv := time.Now()
	c.freeAt = recv
	if err != nil {
		c.failed("read body: %v", err)
		return
	}
	us := float64(recv.Sub(due)) / 1e3
	c.lat = append(c.lat, us)
	c.byKind[r.kind] = append(c.byKind[r.kind], us)
	c.keep(r, res, body, sent, recv)
}

// keep records one answer for checking after the loops and remembers the
// ETag a JSON answer carried.
func (c *client) keep(r request, res *http.Response, body []byte, sent, recv time.Time) {
	c.bytes += int64(len(body))
	id, ok := c.bodyID[string(body)]
	if !ok {
		id = int32(len(c.bodies))
		c.bodies = append(c.bodies, body)
		c.bodyID[string(body)] = id
	}
	etag := res.Header.Get("ETag")
	tag, ok := c.tagID[etag]
	if !ok {
		tag = int32(len(c.tags))
		c.tags = append(c.tags, etag)
		c.tagID[etag] = tag
	}
	c.answers = append(c.answers, answer{req: r, status: int32(res.StatusCode), etag: tag, body: id,
		sent: sent.Sub(c.epoch), recv: recv.Sub(c.epoch)})
	if r.kind == kindJSON || r.kind == kindRevalidate && res.StatusCode == http.StatusOK {
		c.etags[r.group] = c.tags[tag]
	}
}

// checkAnswers verifies every answer the client kept, in the order
// received, and drops them.
func (c *client) checkAnswers() {
	for _, a := range c.answers {
		err := c.env.verify(a.req, int(a.status), c.tags[a.etag], c.bodies[a.body],
			c.epoch.Add(a.sent), c.epoch.Add(a.recv))
		if err != nil {
			c.failed("%s: %v", kindNames[a.req.kind], err)
		}
	}
	c.answers, c.tags, c.tagID, c.bodies, c.bodyID = nil, nil, nil, nil, nil
}

// rateSlice is about how long a slice of the closed loop is; throughput is
// the median of the slices' answer rates, so a burst of time stolen from
// the VM stays out of the figure.
const rateSlice = 500 * time.Millisecond

// spread adds n answers, answered evenly over [t0, t1], to the per-slice
// counters of a loop that began at start.
func spread(slices []float64, slice time.Duration, start, t0, t1 time.Time, n float64) {
	d := t1.Sub(t0)
	if d <= 0 {
		d = 1
	}
	for t := t0; t.Before(t1); {
		i := int(t.Sub(start) / slice)
		if i >= len(slices) {
			return
		}
		end := start.Add(time.Duration(i+1) * slice)
		if end.After(t1) {
			end = t1
		}
		slices[i] += n * float64(end.Sub(t)) / float64(d)
		t = end
	}
}

// pipelineDepth is how many requests a closed-loop client keeps in flight
// on its connection, so the loop measures the server's CPU cost rather
// than the scheduler's wake-up latency between two synchronous peers.
const pipelineDepth = 16

// batch sends pipelineDepth requests back to back on a raw HTTP/1.1
// connection, then reads and keeps the answers in order. It returns the
// number of answers read.
func (c *client) batch(conn *bufio.ReadWriter) int {
	var reqs [pipelineDepth]request
	var hreqs [pipelineDepth]*http.Request
	for i := range reqs {
		reqs[i] = c.next()
		hreqs[i] = c.env.httpRequest(c.env.url, reqs[i])
		if err := hreqs[i].Write(conn); err != nil {
			c.failed("write: %v", err)
			return 0
		}
	}
	sent := time.Now()
	if err := conn.Flush(); err != nil {
		c.failed("write: %v", err)
		return 0
	}
	for i := range reqs {
		c.attempts++
		res, err := http.ReadResponse(conn.Reader, hreqs[i])
		if err != nil {
			c.failed("read: %v", err)
			return i
		}
		body, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			c.failed("read body: %v", err)
			return i
		}
		recv := time.Now()
		c.closedLat = append(c.closedLat, float64(recv.Sub(sent))/1e3)
		c.closedAt = append(c.closedAt, recv)
		c.keep(reqs[i], res, body, sent, recv)
	}
	return pipelineDepth
}

func (c *client) failed(format string, args ...any) {
	c.failures++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// verify checks one answer against the model: the expected status, a body
// that decodes, statistics within sketch.Alpha of the exact ones for a
// version current during the request, one ETag per version, JSON and
// binary twins that agree, and a 304 exactly when the ETag was current.
func (e *queryEnv) verify(r request, status int, etag string, body []byte, sent, recv time.Time) error {
	m := e.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.kind == kindCompare {
		if status != http.StatusOK {
			return fmt.Errorf("status %d", status)
		}
		return m.verifyCompare(r.pair, etag, body, sent, recv)
	}
	g := m.groups[r.group]
	if r.kind == kindRevalidate {
		n, ok := g.etagN[r.etag]
		if !ok {
			return fmt.Errorf("revalidated an ETag never served")
		}
		stillCurrent := g.currentThroughout(n, sent, recv)
		switch {
		case status == http.StatusNotModified:
			if !g.currentDuring(n, sent, recv) {
				return fmt.Errorf("304 for an ETag that was not current")
			}
			return nil
		case status == http.StatusOK && stillCurrent:
			return fmt.Errorf("200 for an ETag that stayed current")
		}
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d", status)
	}
	rep := 0
	if r.kind == kindBinary {
		rep = 1
	}
	if known, ok := g.verified[etag]; ok {
		if !bytes.Equal(known, body) {
			return fmt.Errorf("two bodies for ETag %s", etag)
		}
		return nil
	}
	var resp serve.LatencyResponse
	var err error
	if rep == 1 {
		resp, err = serve.DecodeLatencyBinary(body)
	} else {
		err = json.Unmarshal(body, &resp)
	}
	if err != nil {
		return fmt.Errorf("decode: %v", err)
	}
	return g.admit(etag, rep, resp, body, sent, recv)
}

// admit checks a newly seen representation of the group and remembers it.
func (g *queryGroup) admit(etag string, rep int, resp serve.LatencyResponse, body []byte, sent, recv time.Time) error {
	n := resp.N
	if !g.currentDuring(n, sent, recv) {
		return fmt.Errorf("served %d readings, no version with that count was current", n)
	}
	if prev, ok := g.nETag[[2]int{n, rep}]; ok && prev != etag {
		return fmt.Errorf("ETag changed without a change in readings")
	}
	if err := checkLatency(resp, g.sortedAt(n)); err != nil {
		return err
	}
	twins := [2]map[int]serve.LatencyResponse{g.twin, g.twinBin}
	twins[rep][n] = resp
	if other, ok := twins[1-rep][n]; ok {
		if err := checkBinaryTwin(other, serve.EncodeLatencyBinary(&resp)); err != nil {
			return err
		}
	}
	g.verified[etag] = append([]byte(nil), body...)
	g.etagN[etag] = n
	g.nETag[[2]int{n, rep}] = etag
	return nil
}

// currentDuring reports whether the version with n readings was current
// at some moment of [from, to].
func (g *queryGroup) currentDuring(n int, from, to time.Time) bool {
	for _, v := range g.versions {
		if v.n == n && !v.start.After(to) && (v.end.IsZero() || !v.end.Before(from)) {
			return true
		}
	}
	return false
}

// currentThroughout reports whether the version with n readings was
// certainly current for all of [from, to]: it was published before from
// and no later version's swap began before to.
func (g *queryGroup) currentThroughout(n int, from, to time.Time) bool {
	for i, v := range g.versions {
		if v.n != n {
			continue
		}
		if v.start.After(from) {
			return false
		}
		return i+1 == len(g.versions) || g.versions[i+1].start.After(to)
	}
	return false
}

// verifyCompare checks a /v1/compare answer: both sides' counts belong to
// versions current during the request and each side's median is within
// sketch.Alpha of the exact median of that version.
func (m *queryModel) verifyCompare(pair int, etag string, body []byte, sent, recv time.Time) error {
	var resp serve.CompareResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode: %v", err)
	}
	for i, side := range []serve.CompareSideJSON{resp.A, resp.B} {
		g := m.groups[m.pairs[pair][i]]
		if side.Game != g.game || side.Location.Key != g.loc.Key() {
			return fmt.Errorf("compare side %d is %s/%s, want %s", i, side.Location.Key, side.Game, g.key)
		}
		if !g.currentDuring(side.N, sent, recv) {
			return fmt.Errorf("compare side %d: %d readings, no version with that count was current", i, side.N)
		}
		want := g.sortedAt(side.N)[(side.N-1)/2]
		if math.Abs(side.MedianMs-want) > sketch.Alpha*want+1e-9 {
			return fmt.Errorf("compare side %d: median %g, exact %g", i, side.MedianMs, want)
		}
	}
	if math.IsNaN(resp.WassersteinMs) || resp.WassersteinMs < 0 {
		return fmt.Errorf("compare distance %g", resp.WassersteinMs)
	}
	return nil
}

// queryRun is what the two loops of one run measured.
type queryRun struct {
	closedReqs   int
	slice        time.Duration
	sliceAnswers []float64 // closed-loop answers per slice
	closedWall   time.Duration
	closedBusy   time.Duration // time clients spent in batches, summed
	closedLat    []float64     // µs from batch send
	closedAt     []time.Time   // when each closedLat answer came
	closedStart  time.Time
	openLat      []float64 // µs from due time
	late         []float64 // µs
	byKind       [numKinds][]float64
	bytes        int64
	attempts     int
	failures     int
	errs         []string
	swaps        int
	publishErr   error
	cacheHitRate float64
}

// runLoops runs the closed loop for half the time, then the open loop at
// the offered rate for the other half, with the publisher swapping a delta
// in at a fixed cadence throughout.
func (e *queryEnv) runLoops(o opts, tr *tracer) *queryRun {
	out := &queryRun{}
	stop := make(chan struct{})
	pubDone := make(chan error, 1)
	go func() {
		t := time.NewTicker(o.sz.QuerySwapEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				pubDone <- nil
				return
			case <-t.C:
				if err := e.publishOnce(tr); err != nil {
					pubDone <- err
					return
				}
			}
		}
	}()
	hits0, miss0 := obs.C("serve_cache_hits_total").Value(), obs.C("serve_cache_misses_total").Value()

	half := time.Duration(o.seconds / 2 * float64(time.Second))
	clients := make([]*client, nproc)
	for i := range clients {
		clients[i] = newClient(e, o.seed, i, o.sz)
	}
	// Closed loop: each client sends its next batch of pipelined requests
	// when the last batch has been answered, on one connection of its own.
	// Its per-request latencies (batch send to answer) are the workload's
	// end-to-end latency: with the CPUs kept busy they measure the server,
	// while open-loop latencies at this offered rate mostly measure how
	// fast idle vCPUs wake (see README.md).
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	deadline := start.Add(half)
	nslices := int(half / rateSlice)
	if nslices < 1 {
		nslices = 1
	}
	out.slice = half / time.Duration(nslices)
	out.closedStart = start
	out.sliceAnswers = make([]float64, nslices)
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			conn, err := net.Dial("tcp", e.ln.Addr().String())
			if err != nil {
				c.failed("dial: %v", err)
				return
			}
			defer conn.Close()
			rw := bufio.NewReadWriter(bufio.NewReader(conn), bufio.NewWriter(conn))
			n := 0
			var busy time.Duration
			var spans [][2]time.Time
			for time.Now().Before(deadline) {
				t0 := time.Now()
				got := c.batch(rw)
				t1 := time.Now()
				busy += t1.Sub(t0)
				n += got
				if got < pipelineDepth {
					break
				}
				spans = append(spans, [2]time.Time{t0, t1})
			}
			mu.Lock()
			out.closedReqs += n
			out.closedBusy += busy
			for _, sp := range spans {
				spread(out.sliceAnswers, out.slice, start, sp[0], sp[1], pipelineDepth)
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	out.closedWall = time.Since(start)
	// Open loop: request i is due at start + i/rate, on one of the
	// generator clients. A request whose client was still busy at its due
	// time is timed from the due time, so a stall delays every later
	// request too; one whose client was idle is timed from when the
	// generator woke to send it, so the timer's coarse wake-ups (about a
	// millisecond on the 2-vCPU reference VM) are reported as generator
	// lateness instead of being charged to the server. Meanwhile the first client keeps a closed loop
	// of single requests running as background load, so the open-loop
	// requests meet a working server rather than idle CPUs waking up.
	interval := time.Duration(float64(time.Second) / o.sz.QueryRate)
	total := int(half / interval)
	openStart := time.Now().Add(time.Millisecond)
	gens := clients
	bgStop := make(chan struct{})
	if len(clients) > 1 {
		gens = clients[1:]
		bg := clients[0]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-bgStop:
					return
				default:
					bg.do(bg.next(), time.Now())
				}
			}
		}()
	}
	openLat := make([][]float64, len(gens))
	var gwg sync.WaitGroup
	for k, c := range gens {
		gwg.Add(1)
		go func(k int, c *client) {
			defer gwg.Done()
			n0 := len(c.lat)
			for i := k; i < total; i += len(gens) {
				due := openStart.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				c.late = append(c.late, float64(sent.Sub(due))/1e3)
				if !c.freeAt.After(due) {
					due = sent
				}
				c.do(c.next(), due)
			}
			openLat[k] = c.lat[n0:]
		}(k, c)
	}
	gwg.Wait()
	close(bgStop)
	wg.Wait()
	close(stop)
	out.publishErr = <-pubDone

	for _, l := range openLat {
		out.openLat = append(out.openLat, l...)
	}
	// Every answer is checked now that the loops have ended, client by
	// client in the order each received them.
	for _, c := range clients {
		c.checkAnswers()
	}
	for _, c := range clients {
		out.closedLat = append(out.closedLat, c.closedLat...)
		out.closedAt = append(out.closedAt, c.closedAt...)
		out.late = append(out.late, c.late...)
		for kind := range c.byKind {
			out.byKind[kind] = append(out.byKind[kind], c.byKind[kind]...)
		}
		out.bytes += c.bytes
		out.attempts += c.attempts
		out.failures += c.failures
		out.errs = append(out.errs, c.errs...)
		c.http.CloseIdleConnections()
	}
	hits := obs.C("serve_cache_hits_total").Value() - hits0
	miss := obs.C("serve_cache_misses_total").Value() - miss0
	if hits+miss > 0 {
		out.cacheHitRate = float64(hits) / float64(hits+miss)
	}
	e.m.mu.Lock()
	out.swaps = e.m.swaps
	e.m.mu.Unlock()
	return out
}

// calm returns the closed loop's answer rates and latencies in the slices
// measured while the host left the vCPUs alone (see keepCalm).
func (run *queryRun) calm(m *stealMeter) (rates, lat []float64) {
	spans := make([][2]time.Time, len(run.sliceAnswers))
	for i := range spans {
		from := run.closedStart.Add(time.Duration(i) * run.slice)
		spans[i] = [2]time.Time{from, from.Add(run.slice)}
	}
	idx, _ := m.keepCalm(spans)
	keep := make(map[int]bool, len(idx))
	for _, i := range idx {
		keep[i] = true
		rates = append(rates, run.sliceAnswers[i]/run.slice.Seconds())
	}
	for k, at := range run.closedAt {
		if keep[int(at.Sub(run.closedStart)/run.slice)] {
			lat = append(lat, run.closedLat[k])
		}
	}
	return rates, lat
}

// account copies a run's request counts and check failures into the
// report: a request fails on an unexpected status or a body that fails to
// decode or check.
func (run *queryRun) account(rep *report) {
	rep.attempted += int64(run.attempts)
	rep.failed += int64(run.failures)
	for _, e := range run.errs {
		rep.fail("request: %s", e)
	}
	if run.publishErr != nil {
		rep.fail("publish: %v", run.publishErr)
	}
}

// runQuery serves the query mix over loopback HTTP while deltas land.
func runQuery(o opts) (*report, error) {
	env, setupS, err := timeSetups(o.sz.SetupReps,
		func() (*queryEnv, error) { return setupQuery(o) }, (*queryEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	rep := &report{}
	if o.trace {
		half := o
		half.seconds = o.seconds / 2
		base := env.runLoops(half, nil)
		base.account(rep)
		tr := newTracer()
		stages := map[string]string{"serve.build_delta": "serve.build_delta"}
		before := spanSnapshot(stages)
		run := env.runLoops(half, tr)
		// Taken before the checks, whose own BuildDelta the program times
		// but the benchmark does not.
		r := spanRatio(tr, before, stages)
		run.account(rep)
		if err := env.checkIndex(); err != nil {
			rep.fail("%v", err)
		}
		queryLayers(rep, tr, env, base, run, o)
		rep.set("trace.span_ratio", "ratio", r)
		checkSpanRatio(rep, r)
		return rep, nil
	}
	meter := startStealMeter(stealPeriod)
	run := env.runLoops(o, nil)
	meter.Stop()
	run.account(rep)
	if err := env.checkIndex(); err != nil {
		rep.fail("%v", err)
	}
	rates, lat := run.calm(meter)
	rep.set("setup_s", "s", setupS)
	rep.set("throughput_per_s", "1/s", median(rates))
	rep.set("latency_p50_ms", "ms", pctOf(lat, 50)/1e3)
	rep.set("latency_p95_ms", "ms", pctOf(lat, 95)/1e3)
	held := heapMB()
	env.close()
	env.b, env.ix, env.srv, env.hs = nil, nil, nil, nil
	rep.set("live_heap_mb", "MB", held-heapMB())
	return rep, nil
}

// checkIndex compares every served entry with the model after the run.
func (e *queryEnv) checkIndex() error {
	m := e.m
	m.mu.Lock()
	defer m.mu.Unlock()
	exact := make(map[string][]float64, len(m.groups))
	for _, g := range m.groups {
		exact[g.key] = g.vals
	}
	snap, _ := e.b.BuildDelta()
	return checkServedEntries(snap.Entries, exact)
}
