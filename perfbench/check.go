package main

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"

	"tero/internal/serve"
	"tero/internal/sketch"
)

// The correctness checks are pure functions of what the program returned
// and what the benchmark computed apart from it, so the benchmark's tests
// can feed each one a deliberately wrong answer.

// sameMultiset reports whether two sorted string lists are equal.
func sameMultiset(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d documents, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("document %d is %q, want %q", i, got[i], want[i])
		}
	}
	return nil
}

// passOutcomes is one pass's partition of its ingested thumbnails as the
// program counted it, with the measured thumbnails also counted from the
// stored documents and, apart from the program, from the world's truth.
type passOutcomes struct {
	ingested    int // thumbnails the pipeline ingested
	docs        int // measurement documents stored
	processed   int // the pipeline's measured + zero + miss
	measured    int
	zero, miss  int
	quarantined int
	// cleanLobbyDocs is how many stored documents the world says were
	// taken from an uncorrupted lobby thumbnail showing the 0 placeholder.
	cleanLobbyDocs int
}

// thumbTruth is what the world says a pass's served thumbnails show,
// counted by the benchmark from worldsim's sessions and renderer.
type thumbTruth struct {
	thumbs int // thumbnails the platform served
	// unknown is how many show a game the game list lacks.
	unknown int
	// lobby is how many show the lobby's 0 placeholder; cleanLobby how
	// many of those carry no low-contrast, occlusion or clock corruption.
	lobby, cleanLobby int
}

// checkOutcomes verifies that every ingested thumbnail landed in exactly
// one outcome: measured, zero, miss, quarantined or unknown game. The
// unknown-game count is the world's, not the program's, so a thumbnail
// that vanished or was counted twice shows. An uncorrupted lobby
// placeholder must never become a reading, and every one must be read as
// zero. (A corrupted one may: a clock drawn over it reads as a number.)
func checkOutcomes(got passOutcomes, want thumbTruth) error {
	switch {
	case got.ingested != want.thumbs:
		return fmt.Errorf("pipeline ingested %d thumbnails, the platform served %d", got.ingested, want.thumbs)
	case got.docs != got.measured:
		return fmt.Errorf("%d measurement documents stored, pipeline counted %d measured", got.docs, got.measured)
	case got.processed != got.measured+got.zero+got.miss:
		return fmt.Errorf("processed %d != measured %d + zero %d + miss %d",
			got.processed, got.measured, got.zero, got.miss)
	}
	if n := got.docs + got.zero + got.miss + got.quarantined + want.unknown; n != got.ingested {
		return fmt.Errorf("%d thumbnails ingested but %d have an outcome (measured %d, zero %d, miss %d, quarantined %d, unknown game %d)",
			got.ingested, n, got.docs, got.zero, got.miss, got.quarantined, want.unknown)
	}
	if got.cleanLobbyDocs != 0 {
		return fmt.Errorf("%d readings taken from uncorrupted lobby placeholders", got.cleanLobbyDocs)
	}
	if got.zero < want.cleanLobby {
		return fmt.Errorf("%d zero outcomes, but %d uncorrupted lobby placeholders were served", got.zero, want.cleanLobby)
	}
	return nil
}

// checkReadings verifies reading conservation: every measured reading is
// served, deferred (its streamer has no location yet) or unlocatable, and
// the publish path served exactly the readings the benchmark says it did.
func checkReadings(measured, served, deferred, unlocatable, published int) error {
	if measured != served+deferred+unlocatable {
		return fmt.Errorf("measured %d != served %d + deferred %d + unlocatable %d",
			measured, served, deferred, unlocatable)
	}
	if published != served {
		return fmt.Errorf("publish path served %d readings, account says %d", published, served)
	}
	return nil
}

// checkServedEntries compares every served entry with the exact statistics
// of the readings the benchmark put into its group, and both bodies of the
// entry with each other. Every group with readings must be served.
func checkServedEntries(entries []*serve.Entry, exact map[string][]float64) error {
	seen := 0
	for _, e := range entries {
		vals, ok := exact[e.Key]
		if !ok {
			return fmt.Errorf("entry %s served without readings", e.Key)
		}
		seen++
		var resp serve.LatencyResponse
		if err := json.Unmarshal(e.BodyJSON(), &resp); err != nil {
			return fmt.Errorf("entry %s: JSON body: %v", e.Key, err)
		}
		if err := checkBinaryTwin(resp, e.BodyBinary()); err != nil {
			return fmt.Errorf("entry %s: %v", e.Key, err)
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		if err := checkLatency(resp, sorted); err != nil {
			return fmt.Errorf("entry %s: %v", e.Key, err)
		}
	}
	if seen != len(exact) {
		return fmt.Errorf("%d groups have readings, %d are served", len(exact), seen)
	}
	return nil
}

// checkBinaryTwin verifies that a binary body decodes to the same
// response as its JSON twin.
func checkBinaryTwin(fromJSON serve.LatencyResponse, bin []byte) error {
	fromBin, err := serve.DecodeLatencyBinary(bin)
	if err != nil {
		return fmt.Errorf("binary body: %v", err)
	}
	if !reflect.DeepEqual(fromJSON, fromBin) {
		return fmt.Errorf("binary body disagrees with its JSON twin")
	}
	return nil
}

// checkLatency verifies one served response against the exact ascending
// sample of its readings: the count, minimum and maximum exactly, the
// mean to fixed-point precision, and every quantile within sketch.Alpha of
// the sample value at the sketch's rank.
func checkLatency(resp serve.LatencyResponse, sorted []float64) error {
	n := len(sorted)
	if resp.N != n {
		return fmt.Errorf("n %d, want %d", resp.N, n)
	}
	if n == 0 {
		return nil
	}
	if resp.MinMs != sorted[0] || resp.MaxMs != sorted[n-1] {
		return fmt.Errorf("min/max %g/%g, want %g/%g", resp.MinMs, resp.MaxMs, sorted[0], sorted[n-1])
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	if mean := sum / float64(n); math.Abs(resp.MeanMs-mean) > 1e-6*math.Max(1, mean) {
		return fmt.Errorf("mean %g, want %g", resp.MeanMs, mean)
	}
	for _, q := range resp.Quantiles {
		want := sorted[int(math.Floor(q.P/100*float64(n-1)))]
		if math.Abs(q.Ms-want) > sketch.Alpha*want+1e-9 {
			return fmt.Errorf("p%g = %g ms, exact %g ms (beyond alpha %g)", q.P, q.Ms, want, sketch.Alpha)
		}
	}
	return nil
}
