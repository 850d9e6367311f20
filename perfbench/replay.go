package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tero/internal/twitchsim"
	"tero/internal/worldsim"
)

// Replay is the benchmark's stand-in for the streaming platform, after
// CGReplay's capture and replay. In recording mode it forwards every
// request to a live twitchsim.Platform at the same virtual instant and
// keeps the response; in replay mode it answers from that recording, so no
// thumbnail is rendered or digested by the simulator while Tero is timed.
//
// Responses are keyed by {virtual instant, method, request URI}: the
// platform's answers are a pure function of those, so a replayed pass that
// asks what the recorded pass asked gets byte-identical bytes. A request
// the recording lacks is answered by the live simulator at the same
// instant and counted as a miss, so a change in what the pipeline asks for
// stays correct and shows up in replay.misses.
type Replay struct {
	world *worldsim.World
	// start is the virtual instant every pass begins at.
	start time.Time
	// cdnDelay is a fixed real-time delay (ns) added to every replayed CDN
	// answer (thumbnails and the offline redirect target).
	cdnDelay atomic.Int64

	mu        sync.RWMutex
	recording bool
	now       time.Time
	rec       map[replayKey]*replayResp
	live      *twitchsim.Platform
	// firstServed is the wall time each thumbnail was first served in the
	// current pass, keyed by {streamer ID, X-Thumbnail-At}.
	firstServed map[thumbRef]time.Time

	liveHTTP *http.Client
	srv      *http.Server
	ln       net.Listener
	base     string
	done     chan struct{}

	misses     atomic.Int64
	serveNanos atomic.Int64
}

type replayKey struct {
	at     int64
	method string
	uri    string
}

type replayResp struct {
	status int
	header http.Header
	body   []byte
}

// thumbRef identifies one thumbnail: the platform streamer ID and the
// instant its window opened (the stamp window-stamped downloaders store).
type thumbRef struct {
	streamer, at string
}

// NewReplay starts the replay server on a loopback port, in recording mode
// with the virtual clock at start.
func NewReplay(world *worldsim.World, start time.Time, cdnDelay time.Duration) (*Replay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("replay: listen: %w", err)
	}
	r := &Replay{
		world:       world,
		start:       start,
		recording:   true,
		now:         start,
		rec:         make(map[replayKey]*replayResp),
		firstServed: make(map[thumbRef]time.Time),
		liveHTTP: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 4},
			CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			},
		},
		ln:   ln,
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	r.cdnDelay.Store(int64(cdnDelay))
	r.srv = &http.Server{Handler: r}
	go func() {
		defer close(r.done)
		r.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	}()
	return r, nil
}

// URL is the platform base URL Tero is pointed at.
func (r *Replay) URL() string { return r.base }

// Close stops the server and the live simulator and waits for the serving
// goroutine to exit.
func (r *Replay) Close() {
	r.srv.Shutdown(context.Background()) //nolint:errcheck // nothing left to drain
	<-r.done
	r.liveHTTP.CloseIdleConnections()
	r.mu.Lock()
	if r.live != nil {
		r.live.Close()
		r.live = nil
	}
	r.mu.Unlock()
}

// SetCDNDelay changes the delay added to replayed CDN answers.
func (r *Replay) SetCDNDelay(d time.Duration) { r.cdnDelay.Store(int64(d)) }

// SetNow moves the virtual clock (either direction: each replay pass starts
// again at the world's start).
func (r *Replay) SetNow(t time.Time) {
	r.mu.Lock()
	r.now = t
	r.mu.Unlock()
}

// StartReplay ends recording and starts a replay pass: the clock returns to
// the start and the per-pass first-served table is cleared.
// Counters keep running; callers difference them around a pass.
func (r *Replay) StartReplay() {
	r.mu.Lock()
	r.recording = false
	r.now = r.start
	r.firstServed = make(map[thumbRef]time.Time)
	r.mu.Unlock()
}

// FirstServed returns when the current pass first served the thumbnail.
func (r *Replay) FirstServed(streamer, at string) (time.Time, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.firstServed[thumbRef{streamer, at}]
	return t, ok
}

// ServedThumbs is the number of distinct thumbnails the current pass
// served.
func (r *Replay) ServedThumbs() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.firstServed)
}

// ServedRefs returns the thumbnails the current pass served.
func (r *Replay) ServedRefs() []thumbRef {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]thumbRef, 0, len(r.firstServed))
	for ref := range r.firstServed {
		out = append(out, ref)
	}
	return out
}

// RecordedThumbs returns every thumbnail the recording holds.
func (r *Replay) RecordedThumbs() []thumbRef {
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := make(map[thumbRef]bool)
	var out []thumbRef
	for k, v := range r.rec {
		if k.method != http.MethodGet || v.status != http.StatusOK || !strings.HasPrefix(k.uri, "/thumb/") {
			continue
		}
		ref := thumbRef{
			streamer: strings.TrimSuffix(strings.TrimPrefix(k.uri, "/thumb/"), ".pgm"),
			at:       v.header.Get("X-Thumbnail-At"),
		}
		if !seen[ref] {
			seen[ref] = true
			out = append(out, ref)
		}
	}
	return out
}

// Misses is the number of replay-mode requests the recording lacked.
func (r *Replay) Misses() int64 { return r.misses.Load() }

// ServeSeconds is the wall time spent answering, CDN delay excluded.
func (r *Replay) ServeSeconds() float64 { return float64(r.serveNanos.Load()) / 1e9 }

// isCDN reports whether a path is a CDN path that pays the CDN delay.
func isCDN(path string) bool {
	return strings.HasPrefix(path, "/thumb/") || path == "/offline.pgm"
}

func (r *Replay) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	r.mu.RLock()
	now, recording := r.now, r.recording
	key := replayKey{now.Unix(), req.Method, req.URL.RequestURI()}
	resp := r.rec[key]
	r.mu.RUnlock()

	if recording || resp == nil {
		var err error
		resp, err = r.liveAnswer(req.Method, key.uri, now)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		r.mu.Lock()
		if r.recording {
			if _, dup := r.rec[key]; !dup {
				r.rec[key] = resp
			}
		} else {
			r.misses.Add(1)
		}
		r.mu.Unlock()
	}
	if req.Method == http.MethodGet && resp.status == http.StatusOK &&
		strings.HasPrefix(req.URL.Path, "/thumb/") {
		ref := thumbRef{
			streamer: strings.TrimSuffix(strings.TrimPrefix(req.URL.Path, "/thumb/"), ".pgm"),
			at:       resp.header.Get("X-Thumbnail-At"),
		}
		r.mu.Lock()
		if _, seen := r.firstServed[ref]; !seen {
			r.firstServed[ref] = start
		}
		r.mu.Unlock()
	}
	h := w.Header()
	for k, v := range resp.header {
		h[k] = v
	}
	if req.Method != http.MethodHead {
		h.Set("Content-Length", strconv.Itoa(len(resp.body)))
	}
	r.serveNanos.Add(int64(time.Since(start)))
	if d := time.Duration(r.cdnDelay.Load()); !recording && d > 0 && isCDN(req.URL.Path) {
		time.Sleep(d)
	}
	w.WriteHeader(resp.status)
	w.Write(resp.body) //nolint:errcheck // a vanished client is the client's problem
}

// liveAnswer asks the live simulator, with its clock at now, and returns
// the response with every mention of the simulator's own address replaced
// by the replay server's (the stream listing embeds absolute thumbnail
// URLs).
func (r *Replay) liveAnswer(method, uri string, now time.Time) (*replayResp, error) {
	r.mu.Lock()
	if r.live == nil || r.live.Now().After(now) {
		// The simulator's clock only moves forward: a replay pass that
		// rewound past it gets a fresh simulator of the same world.
		if r.live != nil {
			r.live.Close()
		}
		r.live = twitchsim.New(r.world)
		r.live.SetAPIRate(1e6, 1e6)
	}
	live := r.live
	live.Advance(now.Sub(live.Now()))
	r.mu.Unlock()

	req, err := http.NewRequest(method, live.URL()+uri, nil)
	if err != nil {
		return nil, err
	}
	res, err := r.liveHTTP.Do(req)
	if err != nil {
		return nil, fmt.Errorf("replay: live %s %s: %w", method, uri, err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, fmt.Errorf("replay: live %s %s: %w", method, uri, err)
	}
	body = bytes.ReplaceAll(body, []byte(live.URL()), []byte(r.base))
	hdr := res.Header.Clone()
	hdr.Del("Date")
	hdr.Del("Content-Length")
	return &replayResp{status: res.StatusCode, header: hdr, body: body}, nil
}
