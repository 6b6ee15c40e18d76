package probe

import "sort"

// MergeTimelines combines the per-shard timelines of a partitioned run into
// one canonical timeline whose JSON export is independent of the shard
// count.
//
// Every track is emitted by exactly one owner — a link's span stream by the
// shard owning its source node, a process's block spans by the shard the
// process runs on — so each track's event sequence is already
// partition-invariant. The merge therefore only has to pick a canonical
// global order: tracks are created in sorted-name order (duplicate names,
// e.g. the fault replicas' empty tracks, collapse into one), and events are
// ordered by (timestamp, track name, per-track emission index). WriteJSON's
// stable timestamp sort then reproduces exactly this order.
func MergeTimelines(parts ...*Timeline) *Timeline {
	var live []*Timeline
	for _, t := range parts {
		if t != nil {
			live = append(live, t)
		}
	}
	if len(live) == 0 {
		return nil
	}
	merged := NewTimeline()
	names := make([]string, 0)
	seen := make(map[string]bool)
	for _, t := range live {
		for _, name := range t.tracks {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	for _, name := range names {
		merged.Track(name)
	}
	// Merged tracks are in sorted-name order, so ordering by merged track
	// is ordering by track name.
	type mev struct {
		rec record
		seq int
	}
	var all []mev
	for _, t := range live {
		tracks := make([]Track, len(t.tracks))
		for i, name := range t.tracks {
			tracks[i] = merged.trackIndex[name]
		}
		names := make([]Name, len(t.names))
		for i, name := range t.names {
			names[i] = merged.Name(name)
		}
		seq := make([]int, len(t.tracks))
		for i := 0; i < t.events.Len(); i++ {
			rec := *t.events.At(i)
			n := seq[rec.track]
			seq[rec.track]++
			rec.track, rec.name = tracks[rec.track], names[rec.name]
			all = append(all, mev{rec: rec, seq: n})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.rec.ts != b.rec.ts {
			return a.rec.ts < b.rec.ts
		}
		if a.rec.track != b.rec.track {
			return a.rec.track < b.rec.track
		}
		return a.seq < b.seq
	})
	for _, m := range all {
		merged.events.Append(m.rec)
	}
	return merged
}
