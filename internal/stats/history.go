package stats

import "io"

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

// History keeps every sample of a run's metric tree, flattened, for
// WriteCSV. The zero value is an empty history.
type History struct {
	at      []int64
	samples [][]Metric
}

// Add records the tree s as it stood at virtual time at. A sample at the
// instant of the last one replaces it, so the history holds one row per
// instant: an end-of-run sample supersedes a periodic one that fired in the
// run's final cycle.
func (h *History) Add(at int64, s *Set) {
	ms := Flatten(s)
	if n := len(h.at); n > 0 && h.at[n-1] == at {
		h.samples[n-1] = ms
		return
	}
	h.at = append(h.at, at)
	h.samples = append(h.samples, ms)
}

// WriteCSV writes the history as CSV: a cycle column, then one column per
// metric path of the last sample — the run's report, which has every path
// an earlier sample has — and one row per sample. A cell whose path the
// sample lacks (a counter a component reports once it is non-zero) is
// empty. Without samples it writes only the cycle header.
func (h *History) WriteCSV(w io.Writer) error {
	var last []Metric
	if n := len(h.samples); n > 0 {
		last = h.samples[n-1]
	}
	header := make([]string, 0, len(last)+1)
	header = append(header, "cycle")
	col := make(map[string]int, len(last))
	for i, m := range last {
		header = append(header, m.Name)
		col[m.Name] = i + 1
	}
	tb := NewTable(header...)
	row := make([]any, len(header))
	for i, ms := range h.samples {
		row[0] = h.at[i]
		for j := 1; j < len(row); j++ {
			row[j] = ""
		}
		for _, m := range ms {
			if j, ok := col[m.Name]; ok {
				row[j] = m.Value
			}
		}
		tb.Row(row...)
	}
	return tb.RenderCSV(w)
}
