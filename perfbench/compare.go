package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// resultLine is one line of a compare input file: a benchmark result with
// the workload and seed it ran.
type resultLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   struct {
		Correct bool              `json:"correct"`
		Metrics map[string]metric `json:"metrics"`
	} `json:"result"`
}

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare compares a parent's and a change's results, run in
// alternating pairs: the i-th result of a workload in one file pairs with
// the i-th of the same workload in the other.
//
//	perfbench compare [-spec BENCHMARK.json] PARENT.jsonl CHANGE.jsonl
func runCompare(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-spec BENCHMARK.json] PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	var spec benchSpec
	raw, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %s: %v\n", *specPath, err)
		return 1
	}
	parent, err := readResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}
	change, err := readResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tdelta\tchange wins\tverdict")
	workloads := make([]string, 0, len(parent))
	for wl := range parent {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	for _, wl := range workloads {
		p, c := parent[wl], change[wl]
		n := len(p)
		if len(c) < n {
			n = len(c)
		}
		if n == 0 {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\tno pairs\n", wl)
			continue
		}
		for _, m := range spec.EndToEnd {
			pv, cv := values(p[:n], m.Name), values(c[:n], m.Name)
			row := compareMetric(pv, cv, m.Better == "lower", m.Bound)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %s\t%.4g [%.4g, %.4g]\t%+.1f%%\t%d/%d\t%s\n",
				wl, m.Name, row.pMed, row.pQ1, row.pQ3, m.Unit, row.cMed, row.cQ1, row.cQ3,
				100*row.delta, row.wins, n, row.verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return 1
	}
	return 0
}

// readResults reads a compare input file, grouped by workload in file
// order. Results whose checks failed are refused.
func readResults(path string) (map[string][]resultLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]resultLine)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r resultLine
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		if !r.Result.Correct {
			return nil, fmt.Errorf("%s:%d: %s seed %d did not pass its checks", path, line, r.Workload, r.Seed)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}

func values(rs []resultLine, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Result.Metrics[name].Value
	}
	return out
}

// comparison is one compare row.
type comparison struct {
	pMed, pQ1, pQ3 float64
	cMed, cQ1, cQ3 float64
	delta          float64 // (change - parent) / parent median
	wins           int     // pairs the change won; ties count for neither
	verdict        string
}

// compareMetric judges one metric over paired runs. A change regressed
// when its median is worse than the parent's by more than the bound; it
// improved when it won at least nine pairs in ten and the medians differ
// by more than the parent's own spread. Where the parent's spread is wider
// than the bound the metric is unresolved, unless every change run beats
// every parent run.
func compareMetric(p, c []float64, lowerBetter bool, bound float64) comparison {
	var r comparison
	r.pMed, r.cMed = median(p), median(c)
	r.pQ1, r.pQ3 = quartiles(p)
	r.cQ1, r.cQ3 = quartiles(c)
	better := func(a, b float64) bool { // a better than b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	for i := range p {
		if better(c[i], p[i]) {
			r.wins++
		}
	}
	if r.pMed == 0 {
		r.verdict = "unresolved"
		return r
	}
	r.delta = (r.cMed - r.pMed) / r.pMed
	worse := r.delta
	if !lowerBetter {
		worse = -worse
	}
	spread := (r.pQ3 - r.pQ1) / r.pMed
	allBetter := true
	for _, cv := range c {
		for _, pv := range p {
			allBetter = allBetter && better(cv, pv)
		}
	}
	switch {
	case allBetter && len(p) > 0:
		r.verdict = "improved"
	case spread > bound:
		r.verdict = "unresolved"
	case worse > bound:
		r.verdict = "regressed"
	case 10*r.wins >= 9*len(p) && -worse > spread:
		r.verdict = "improved"
	default:
		r.verdict = "within bound"
	}
	return r
}
