package probe

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"

	"mermaid/internal/pearl"
	"mermaid/internal/stats"
)

// Entry is one registered metric: a stable dotted name, a unit, and a read
// function evaluated on demand (snapshot) or periodically (sampler).
type Entry struct {
	Name string
	Unit string
	Read func() float64
	// Series collects the samples taken by Registry.Sample.
	Series stats.Series
}

// Registry is the central metrics directory: components register their
// existing counters under stable, greppable dotted names (e.g.
// "node0.cpu0.L1.misses") at construction time. A nil *Registry accepts
// every call as a no-op, so components register unconditionally.
//
// Registration order is preserved; re-registering a name replaces its
// reader, keeping the original position.
type Registry struct {
	entries  []*Entry
	index    map[string]int
	sampling bool // StartSampler has armed the run's sampling chain
}

// Gauge registers a metric read through fn.
func (r *Registry) Gauge(name, unit string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	if r.index == nil {
		r.index = make(map[string]int)
	}
	if i, ok := r.index[name]; ok {
		r.entries[i].Unit = unit
		r.entries[i].Read = fn
		return
	}
	e := &Entry{Name: name, Unit: unit, Read: fn}
	e.Series.Name = name
	r.index[name] = len(r.entries)
	r.entries = append(r.entries, e)
}

// Counter registers a stats.Counter under the given name.
func (r *Registry) Counter(name string, c *stats.Counter) {
	if r == nil || c == nil {
		return
	}
	r.Gauge(name, "", func() float64 { return float64(c.Value()) })
}

// Entries returns the registered metrics in registration order.
func (r *Registry) Entries() []*Entry {
	if r == nil {
		return nil
	}
	return r.entries
}

// Lookup returns the entry registered under name, or nil.
func (r *Registry) Lookup(name string) *Entry {
	if r == nil {
		return nil
	}
	if i, ok := r.index[name]; ok {
		return r.entries[i]
	}
	return nil
}

// Sample appends the current value of every metric to its series, stamped
// with virtual time at: the sampler consumer that keeps a full history, for
// WriteCSV.
func (r *Registry) Sample(at pearl.Time) {
	if r == nil {
		return
	}
	for _, e := range r.entries {
		e.Series.Append(int64(at), e.Read())
	}
}

// StartSampler arms the run's one sampling chain on kernel k — a daemon event
// at every, 2·every, … that calls each consumer with the tick's virtual time —
// and returns the function that takes the end-of-run sample: call it once
// after the run with the run's end time. However many consumers observe a
// run (a CSV history via Sample, a live scope, a sparkline view), they share
// this chain; a second StartSampler on the same registry is an error.
//
// Daemon events fire in (time, sequence) order while model work remains but
// neither keep a run alive nor move its clock, and consumers only read, so a
// sampled run ends at the same cycle with the same statistics as an unsampled
// one. The one thing sampling changes is the kernel's event count: plus one
// per tick fired.
func (r *Registry) StartSampler(k *pearl.Kernel, every pearl.Time, consumers ...func(at pearl.Time)) (finish func(end pearl.Time), err error) {
	if every <= 0 {
		return nil, fmt.Errorf("probe: sampling interval %d", every)
	}
	if r == nil || len(consumers) == 0 {
		return func(pearl.Time) {}, nil // nothing to sample: no chain, no ticks
	}
	if r.sampling {
		return nil, fmt.Errorf("probe: sampler already started")
	}
	r.sampling = true
	sample := func(at pearl.Time) {
		for _, c := range consumers {
			c(at)
		}
	}
	var tick func()
	tick = func() {
		sample(k.Now())
		k.AtDaemon(k.Now()+every, tick)
	}
	k.AtDaemon(k.Now()+every, tick)
	return sample, nil
}

// Snapshot evaluates every metric now, in registration order, copying the
// values out so that they can be served without touching the simulation
// again; nil for an empty registry.
func (r *Registry) Snapshot() []stats.Metric {
	if r == nil || len(r.entries) == 0 {
		return nil
	}
	ms := make([]stats.Metric, len(r.entries))
	for i, e := range r.entries {
		ms[i] = stats.Metric{Name: e.Name, Value: e.Read(), Unit: e.Unit}
	}
	return ms
}

// WriteCSV exports the sampled series as CSV: a cycle column followed by
// one column per registered metric, one row per Sample call. Without any it
// writes only the header.
func (r *Registry) WriteCSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	header := make([]string, 0, len(r.entries)+1)
	header = append(header, "cycle")
	for _, e := range r.entries {
		header = append(header, e.Name)
	}
	tb := stats.NewTable(header...)
	n := 0
	for _, e := range r.entries {
		if e.Series.Len() > n {
			n = e.Series.Len()
		}
	}
	for i := 0; i < n; i++ {
		row := make([]any, len(r.entries)+1)
		for j, e := range r.entries {
			if i < e.Series.Len() {
				row[0] = e.Series.T[i]
				row[j+1] = e.Series.V[i]
			} else {
				row[j+1] = ""
			}
		}
		tb.Row(row...)
	}
	return tb.RenderCSV(w)
}

// WritePrometheus renders metrics in Prometheus text exposition format,
// sorted by name, every one a gauge under a collision-free mermaid_-prefixed
// name. The slice is not modified.
func WritePrometheus(w io.Writer, metrics []stats.Metric) error {
	ms := append([]stats.Metric(nil), metrics...)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	names := make([]string, len(ms))
	for i := range ms {
		names[i] = ms[i].Name
	}
	for i, n := range promNames(names) {
		if ms[i].Unit != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s unit: %s\n", n, ms[i].Unit); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", n, n, ms[i].Value); err != nil {
			return err
		}
	}
	return nil
}

// promNames converts dotted registry metric names to Prometheus-legal,
// mermaid_-prefixed ones. Alphanumerics pass through and every other rune
// becomes '_' — familiar, but lossy: distinct registry names like
// "node0.cache.l1d" and "node0_cache.l1d" would fold into one Prometheus
// name, and scrapers reject expositions with duplicate metric names. Any
// group of input names whose sanitized forms collide therefore gets a
// disambiguating suffix — '_' plus the FNV-1a hash of the original name —
// on every member, keeping the common case pretty and the mapping
// deterministic and injective (up to FNV collisions within one group).
func promNames(names []string) []string {
	out := make([]string, len(names))
	count := make(map[string]int, len(names))
	for i, n := range names {
		out[i] = sanitizeProm(n)
		count[out[i]]++
	}
	for i, n := range names {
		if count[out[i]] > 1 {
			h := fnv.New32a()
			io.WriteString(h, n) //nolint:errcheck // hash writes cannot fail
			out[i] = fmt.Sprintf("%s_%08x", out[i], h.Sum32())
		}
	}
	return out
}

func sanitizeProm(name string) string {
	return "mermaid_" + strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			return r
		}
		return '_'
	}, name)
}
