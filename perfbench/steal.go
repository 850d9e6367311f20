package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The benchmark runs on a VM whose host takes CPU time away in bursts that
// last up to minutes (the guest sees it as steal time in /proc/stat): in
// such an interval the figures measure the host, not Tero. A stealMeter
// samples the guest's steal share while a workload runs, and keepCalm
// keeps the units of work (passes, call slices, loop slices) measured
// while the host left the vCPUs alone.

// stealPeriod is how often a stealMeter reads /proc/stat.
const stealPeriod = 100 * time.Millisecond

// calmSteal is the steal share of CPU time below which a unit counts as
// measured on undisturbed vCPUs.
const calmSteal = 0.05

// minKeptShare is the least share of units a run keeps: when fewer are
// calm, the least disturbed ones are kept.
const minKeptShare = 0.25

// cpuSample is one /proc/stat reading.
type cpuSample struct {
	at           time.Time
	steal, total float64
}

// readCPU reads the aggregate CPU line of /proc/stat; ok is false where
// the file is unavailable.
func readCPU() (cpuSample, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuSample{}, false
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return cpuSample{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuSample{}, false
	}
	s := cpuSample{at: time.Now()}
	for i, fv := range fields[1:] {
		v, err := strconv.ParseFloat(fv, 64)
		if err != nil {
			return cpuSample{}, false
		}
		if i < 8 { // user..steal; guest time is already inside user
			s.total += v
		}
		if i == 7 {
			s.steal = v
		}
	}
	return s, true
}

// stealMeter samples /proc/stat every period until stopped.
type stealMeter struct {
	mu      sync.Mutex
	samples []cpuSample
	stop    chan struct{}
	done    chan struct{}
}

func startStealMeter(period time.Duration) *stealMeter {
	m := &stealMeter{stop: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				m.sample()
				return
			case <-t.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *stealMeter) sample() {
	if s, ok := readCPU(); ok {
		m.mu.Lock()
		m.samples = append(m.samples, s)
		m.mu.Unlock()
	}
}

// Stop ends sampling and waits for the sampler to exit.
func (m *stealMeter) Stop() {
	close(m.stop)
	<-m.done
}

// share is the steal share of CPU time over the samples that cover
// [from, to], widened to the nearest samples outside it; 0 without
// samples.
func (m *stealMeter) share(from, to time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.samples) < 2 {
		return 0
	}
	lo := sort.Search(len(m.samples), func(i int) bool { return m.samples[i].at.After(from) }) - 1
	if lo < 0 {
		lo = 0
	}
	hi := sort.Search(len(m.samples), func(i int) bool { return !m.samples[i].at.Before(to) })
	if hi >= len(m.samples) {
		hi = len(m.samples) - 1
	}
	if hi <= lo {
		hi = lo + 1
		if hi >= len(m.samples) {
			return 0
		}
	}
	a, b := m.samples[lo], m.samples[hi]
	if b.total <= a.total {
		return 0
	}
	return (b.steal - a.steal) / (b.total - a.total)
}

// keepCalm returns the indexes of the units (given by their intervals)
// measured while the steal share stayed below calmSteal; when fewer than
// minKeptShare of them did, the least disturbed minKeptShare. The result
// is in ascending order; kept is the share of units it holds.
func (m *stealMeter) keepCalm(spans [][2]time.Time) (idx []int, kept float64) {
	if len(spans) == 0 {
		return nil, 0
	}
	type unit struct {
		i     int
		steal float64
	}
	units := make([]unit, len(spans))
	for i, sp := range spans {
		units[i] = unit{i, m.share(sp[0], sp[1])}
	}
	for _, u := range units {
		if u.steal < calmSteal {
			idx = append(idx, u.i)
		}
	}
	least := int(float64(len(units))*minKeptShare + 0.999)
	if len(idx) < least {
		sort.SliceStable(units, func(a, b int) bool { return units[a].steal < units[b].steal })
		idx = idx[:0]
		for _, u := range units[:least] {
			idx = append(idx, u.i)
		}
		sort.Ints(idx)
	}
	return idx, float64(len(idx)) / float64(len(spans))
}
