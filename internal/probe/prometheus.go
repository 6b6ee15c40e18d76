package probe

import (
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"strings"

	"mermaid/internal/stats"
)

// WritePrometheus renders metrics in Prometheus text exposition format,
// sorted by name, every one a gauge under a collision-free mermaid_-prefixed
// name. The slice is not modified.
func WritePrometheus(w io.Writer, metrics []stats.Metric) error {
	ms := append([]stats.Metric(nil), metrics...)
	slices.SortStableFunc(ms, func(a, b stats.Metric) int { return strings.Compare(a.Name, b.Name) })
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

// promNames converts metric names — report paths like "nif3/sends" — to
// Prometheus-legal, mermaid_-prefixed ones. Alphanumerics pass through and
// every other rune becomes '_' — familiar, but lossy: distinct names like
// "node0/cache.l1d" and "node0_cache/l1d" would fold into one Prometheus
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
