package stats

import (
	"io"
	"strconv"
)

// Flatten lists every metric of the tree s heads, each named by its path:
// the names of the sets below s that lead to it and its own name, joined by
// '/' ("nif3/sends", "node0/memory-hierarchy/node0.cpu0.L1/hit ratio"); s's
// own metrics keep their names. Metrics come in report order: a set's own,
// then its subsets' in turn.
func Flatten(s *Set) []Metric { return flatten(nil, s, "") }

func flatten(out []Metric, s *Set, prefix string) []Metric {
	for _, m := range s.Metrics {
		m.Name = prefix + m.Name
		out = append(out, m)
	}
	for _, sub := range s.Subsets {
		out = flatten(out, sub, prefix+sub.Name+"/")
	}
	return out
}

// History keeps every sample of a run's metric tree, as numbers, for
// WriteCSV: a metric's path is built once, when it first appears, and each
// sample is one row of values indexed by path, with a mark for the paths it
// has. The zero value is an empty history.
type History struct {
	root  *pathSet
	paths []string // column → metric path
	ticks []tick
	// The last sample's columns in report order, and their values.
	order []int32
	vals  []float64
}

// pathSet names the columns of one set of the tree, and its subsets, by the
// metrics' and subsets' own names.
type pathSet struct {
	prefix string // the path of the set's metrics up to their names
	cols   map[string]int32
	subs   map[string]*pathSet
}

func newPathSet(prefix string) *pathSet {
	return &pathSet{prefix: prefix, cols: map[string]int32{}, subs: map[string]*pathSet{}}
}

// tick is one sample: a value per column, and a bit per column that the
// sample has.
type tick struct {
	at   int64
	vals []float64
	has  []uint64
}

// Add records the tree s as it stood at virtual time at. A sample at the
// instant of the last one replaces it, so the history holds one row per
// instant: an end-of-run sample supersedes a periodic one that fired in the
// run's final cycle.
func (h *History) Add(at int64, s *Set) {
	if h.root == nil {
		h.root = newPathSet("")
	}
	h.order, h.vals = h.order[:0], h.vals[:0]
	h.walk(h.root, s)
	t := tick{at: at, vals: make([]float64, len(h.paths)), has: make([]uint64, (len(h.paths)+63)/64)}
	for i, c := range h.order {
		t.vals[c] = h.vals[i]
		t.has[c/64] |= 1 << (c % 64)
	}
	if n := len(h.ticks); n > 0 && h.ticks[n-1].at == at {
		h.ticks[n-1] = t
		return
	}
	h.ticks = append(h.ticks, t)
}

// walk appends the columns and values of s, which ps names, in report
// order: a set's own metrics, then its subsets' in turn.
func (h *History) walk(ps *pathSet, s *Set) {
	for _, m := range s.Metrics {
		c, ok := ps.cols[m.Name]
		if !ok {
			c = int32(len(h.paths))
			ps.cols[m.Name] = c
			h.paths = append(h.paths, ps.prefix+m.Name)
		}
		h.order = append(h.order, c)
		h.vals = append(h.vals, m.Value)
	}
	for _, sub := range s.Subsets {
		next := ps.subs[sub.Name]
		if next == nil {
			next = newPathSet(ps.prefix + sub.Name + "/")
			ps.subs[sub.Name] = next
		}
		h.walk(next, sub)
	}
}

// WriteCSV writes the history as CSV: a cycle column, then one column per
// metric path of the last sample — the run's report, which has every path
// an earlier sample has — and one row per sample. A cell whose path the
// sample lacks (a counter a component reports once it is non-zero) is
// empty. Without samples it writes only the cycle header.
func (h *History) WriteCSV(w io.Writer) error {
	e := newCSVEncoder(w)
	header := []string{"cycle"}
	for _, c := range h.order {
		header = append(header, h.paths[c])
	}
	e.record(header)
	var line []byte
	for _, t := range h.ticks {
		line = strconv.AppendInt(line[:0], t.at, 10)
		for _, c := range h.order {
			line = append(line, ',')
			if int(c) < len(t.vals) && t.has[c/64]&(1<<(c%64)) != 0 {
				line = appendFloat(line, t.vals[c])
			}
		}
		e.bw.Write(append(line, '\n'))
	}
	return e.flush()
}
