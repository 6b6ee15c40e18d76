package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// resultSet is every run found under one directory, grouped by workload
// and pass: the values of each metric in file-name order, and the digests.
type resultSet struct {
	values  map[seriesKey][]float64
	digests map[string][]string // "workload/trace" -> digest per run
	failed  map[string]int      // "workload/trace" -> failed operations, summed
	runs    int
}

type seriesKey struct {
	workload string
	trace    int
	metric   string
}

// loadResultSet reads every result file below dir.
func loadResultSet(dir string) (*resultSet, error) {
	var paths []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".json") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	rs := &resultSet{values: map[seriesKey][]float64{}, digests: map[string][]string{}, failed: map[string]int{}}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep runReport
		if json.Unmarshal(data, &rep) != nil || rep.Schema != 1 || rep.Workload == "" {
			continue // span files and anything else that is not a result
		}
		rs.runs++
		group := fmt.Sprintf("%s/%d", rep.Workload, rep.Trace)
		rs.digests[group] = append(rs.digests[group], rep.Digest)
		rs.failed[group] += rep.Failed
		for name, m := range rep.Metrics {
			k := seriesKey{rep.Workload, rep.Trace, name}
			rs.values[k] = append(rs.values[k], m.Value)
		}
	}
	if rs.runs == 0 {
		return nil, fmt.Errorf("no result files under %s", dir)
	}
	return rs, nil
}

// verdict is the guide's rule for one (metric, workload) pair.
type verdict string

const (
	same       verdict = "same"
	gain       verdict = "gain"
	regression verdict = "REGRESSION"
	unresolved verdict = "UNRESOLVED"
	moved      verdict = "MOVED" // an exact quantity differs
	info       verdict = "-"     // per-layer: reported, not judged
)

// judge compares the parent's values a with the change's values b.
//
// Regression only beyond the metric's bound; "unresolved" when either
// side's run-to-run spread (inter-quartile distance over median) is wider
// than the bound, because then the bound cannot be told from noise; gain
// only when the change wins at least nine tenths of the pairs (ties count
// for neither side) and the medians differ by more than the parent's
// inter-quartile distance.
func judge(d metricDef, a, b []float64) verdict {
	if len(a) == 0 || len(b) == 0 {
		return info
	}
	if d.Exact {
		for _, v := range append(append([]float64(nil), a...), b...) {
			if v != a[0] {
				return moved
			}
		}
		return same
	}
	if d.Class == perLayer {
		return info
	}
	ma, mb := median(a), median(b)
	worse := mb - ma // positive when b is worse, for lower-is-better
	if d.Better == "higher" {
		worse = ma - mb
	}
	if d.Bound == 0 { // absolute: any worsening at all
		if worse > 0 {
			return regression
		}
		return same
	}
	if ma == 0 {
		return info
	}
	share := worse / math.Abs(ma)
	if share > d.Bound {
		return regression
	}
	for _, vs := range [][]float64{a, b} {
		if q1, q3 := quartiles(vs); !math.IsNaN(q1) && (q3-q1)/math.Abs(median(vs)) > d.Bound {
			return unresolved
		}
	}
	pairs := len(a)
	if len(b) < pairs {
		pairs = len(b)
	}
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch {
		case a[i] == b[i]:
		case (b[i] < a[i]) == (d.Better == "lower"):
			wins++
		default:
			losses++
		}
	}
	q1, q3 := quartiles(a)
	if pairs >= 10 && float64(wins) >= 0.9*float64(wins+losses) && wins > 0 && -worse > q3-q1 {
		return gain
	}
	return same
}

// compareMain implements `benchmark compare <setA> <setB>`: one row per
// (metric, workload) with each side's median and quartiles, and the verdict.
// It exits non-zero on a regression, an unresolved metric, a moved exact
// count or digest, or a failed operation.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	layers := fs.Bool("layers", false, "also print the per-layer metrics that have no bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [-layers] <parentSet> <changeSet>")
		return 2
	}
	a, err := loadResultSet(fs.Arg(0))
	if err == nil {
		var b *resultSet
		if b, err = loadResultSet(fs.Arg(1)); err == nil {
			return writeComparison(os.Stdout, a, b, *layers)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark compare:", err)
	return 2
}

func writeComparison(w io.Writer, a, b *resultSet, layers bool) int {
	fmt.Fprintf(w, "parent: %d result files, change: %d result files\n", a.runs, b.runs)
	fmt.Fprintln(w, unvalidated)
	fmt.Fprintf(w, "%-30s %-14s %12s %12s %12s   %12s %12s %12s  %7s %6s  %s\n",
		"metric", "workload", "parent q1", "median", "q3", "change q1", "median", "q3", "change", "bound", "verdict")

	keys := map[seriesKey]bool{}
	for k := range a.values {
		keys[k] = true
	}
	for k := range b.values {
		keys[k] = true
	}
	order := make([]seriesKey, 0, len(keys))
	for k := range keys {
		order = append(order, k)
	}
	pos := map[string]int{}
	for i, d := range metricDefs {
		pos[d.Name] = i
	}
	wpos := map[string]int{}
	for i, wl := range workloads {
		wpos[wl.name] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if pos[order[i].metric] != pos[order[j].metric] {
			return pos[order[i].metric] < pos[order[j].metric]
		}
		return wpos[order[i].workload] < wpos[order[j].workload]
	})

	bad := 0
	for _, k := range order {
		d, ok := metricByName(k.metric)
		if !ok {
			continue
		}
		va, vb := a.values[k], b.values[k]
		v := judge(d, va, vb)
		if v == info && !layers {
			continue
		}
		if v == regression || v == unresolved || v == moved {
			bad++
		}
		qa1, qa3 := quartiles(va)
		qb1, qb3 := quartiles(vb)
		change := "      -"
		if ma := median(va); ma != 0 {
			change = fmt.Sprintf("%+6.1f%%", (median(vb)-ma)/math.Abs(ma)*100)
		}
		bound := "-"
		if d.Class != perLayer {
			bound = fmt.Sprintf("%g%%", d.Bound*100)
		}
		fmt.Fprintf(w, "%-30s %-14s %12.5g %12.5g %12.5g   %12.5g %12.5g %12.5g  %7s %6s  %s\n",
			k.metric, k.workload, qa1, median(va), qa3, qb1, median(vb), qb3, change, bound, v)
	}

	groups := make([]string, 0, len(a.digests))
	for g := range a.digests {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		all := append(append([]string(nil), a.digests[g]...), b.digests[g]...)
		for _, dg := range all {
			if dg != all[0] {
				fmt.Fprintf(w, "digest %-24s MOVED: simulated statistics differ between runs\n", g)
				bad++
				break
			}
		}
		if n := a.failed[g] + b.failed[g]; n > 0 {
			fmt.Fprintf(w, "failed %-24s %d operation(s) failed\n", g, n)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d finding(s): the sets do not agree\n", bad)
		return 1
	}
	fmt.Fprintln(w, "the sets agree: every end-to-end metric within its bound, none unresolved, exact counts and digests identical")
	return 0
}
