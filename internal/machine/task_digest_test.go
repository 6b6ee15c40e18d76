package machine

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"mermaid/internal/analysis"
	"mermaid/internal/fault"
	"mermaid/internal/probe"
	"mermaid/internal/router"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
	"mermaid/internal/stochastic"
	"mermaid/internal/topology"
)

// taskStatsDigests pins SHA-256 of the rendered metric tree of 1,024-node
// task-level runs — every procN set with its nifN subset, node ids from one
// digit to four. They were printed by the tree that still built each node's
// report sets one Put at a time and named every interface counter with
// fmt.Sprintf. The sharded fabric refuses wormhole switching, so the
// shards cases run the same exchange under virtual cut-through, once on
// the single kernel and once on two shards. The faulted and the sharded
// digests were re-printed when fault accounting joined the report and the
// report stopped carrying the registry (and, on shards, a merge of the
// shards' registries); the sharded one once more, by the tree before shards
// refused probes, without one. All five were re-printed by commit 07645d3
// when the digest stopped hashing the metric registry's snapshot beside the
// report.
var taskStatsDigests = map[string]string{
	"vct/plain":         "2b588a00d088751b3fd0c7dc",
	"vct/shards2":       "abde9ee0f4c01459415c7f35",
	"wormhole/faults":   "9f8de8ab02e4b079873840ee",
	"wormhole/observed": "eac99dcdeb2fb859e6284353",
	"wormhole/plain":    "eac99dcdeb2fb859e6284353",
}

// taskExchangeDesc is a pairwise exchange among n task-level nodes:
// synchronous 4 KiB messages, so every send is acknowledged.
func taskExchangeDesc(n, iterations int) stochastic.Desc {
	return stochastic.Desc{
		Nodes: n, Level: stochastic.TaskLevel, Seed: 17, Iterations: iterations,
		Phases: []stochastic.Phase{{
			Duration: 2000, CV: 0.1,
			Comm: stochastic.Comm{Pattern: stochastic.Exchange, Bytes: 4096},
		}},
	}
}

// torus32Task is a 32×32 task-level torus under sw.
func torus32Task(sw router.Switching) Config {
	cfg := GenericTaskMachine(topology.Config{Kind: topology.Torus2D, DimX: 32, DimY: 32}, 1024, sw)
	cfg.Seed = 3
	return cfg
}

// taskStatsDigest runs cfg on env and hashes the rendered metric tree.
func taskStatsDigest(t *testing.T, env sim.Env, cfg Config) string {
	t.Helper()
	m, err := Build(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunStochastic(taskExchangeDesc(cfg.Nodes, 2))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%d cycles, %d events\n", res.Cycles, res.Events)
	if err := stats.RenderSet(h, res.Stats); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

func TestTaskStatsDigests(t *testing.T) {
	worm := torus32Task(router.Wormhole)
	vct := torus32Task(router.VirtualCutThrough)
	sharded := vct
	sharded.Shards = 2
	faulted := worm
	faulted.Faults = &fault.Schedule{
		Links:   []fault.LinkFault{{A: 0, B: 1, Window: fault.Window{From: 500, To: 20_000}}},
		Noise:   []fault.LinkNoise{{A: -1, B: -1, Drop: 0.002}},
		Retrans: fault.Retrans{Timeout: 250, Backoff: 2, MaxRetries: 16},
	}
	plain := func(cfg Config) sim.Env { return sim.NewEnv(cfg.Seed, nil) }
	probed := func(cfg Config) sim.Env { return sim.NewEnv(cfg.Seed, probe.New(probe.Config{})) }
	observed := func(cfg Config) sim.Env { return probed(cfg).WithCollector(analysis.New()) }
	cases := []struct {
		name string
		cfg  Config
		env  func(Config) sim.Env
	}{
		{"wormhole/plain", worm, plain},
		{"wormhole/observed", worm, observed},
		{"wormhole/faults", faulted, probed},
		{"vct/plain", vct, probed},
		{"vct/shards2", sharded, plain},
	}
	got := make(map[string]string)
	for _, c := range cases {
		got[c.name] = taskStatsDigest(t, c.env(c.cfg), c.cfg)
	}

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var table strings.Builder
	for _, name := range names {
		fmt.Fprintf(&table, "\t%q: %q,\n", name, got[name])
		want, ok := taskStatsDigests[name]
		switch {
		case !ok:
			t.Errorf("%s: no digest pinned (got %s)", name, got[name])
		case got[name] != want:
			t.Errorf("%s: digest %s, pinned %s: a report set or metric moved", name, got[name], want)
		}
	}
	if len(taskStatsDigests) != len(got) {
		t.Errorf("%d digests pinned for %d runs", len(taskStatsDigests), len(got))
	}
	if t.Failed() {
		t.Logf("digests of this tree:\n%s", table.String())
	}
}
