package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"mermaid/internal/cache"
	"mermaid/internal/cpu"
	"mermaid/internal/machine"
	"mermaid/internal/pearl"
	"mermaid/internal/router"
	"mermaid/internal/stats"
	"mermaid/internal/topology"
)

// timeScales are the factors TestTimeScaleInvariance stretches time by. A
// factor of 3 cannot hold exactly on any detailed machine: a bus or memory
// moves power-of-two cache lines at a whole number of bytes per cycle, so a
// transfer takes a power of two cycles, and three times that is no whole
// number of cycles at any whole-number rate. 4 is the next factor whose
// divided rates stay whole.
var timeScales = []int{2, 4}

// messageGranule is the smallest message the applications below send (a
// 4-byte word, jacobi-dsm's barrier); every message they send is a multiple
// of it.
const messageGranule = 4

// TestTimeScaleInvariance checks a relation any correct timing model obeys:
// with every latency, overhead and cycles-per-byte multiplied by k and every
// bytes-per-cycle rate divided by k, a run takes exactly k times the cycles,
// every cycle-valued statistic is k times its value, every per-cycle rate
// is 1/k of it, and every count and ratio is unchanged. It holds exactly
// only when a transfer takes a whole number of cycles at both rates, so each
// case first asserts that every rate divides every size it moves and that k
// divides every rate. It runs every detailed preset with every application
// the preset runs, plus the 4×4 T805 grid under every switching mode on mesh
// and torus and the DSM cluster with and without its shared memory.
func TestTimeScaleInvariance(t *testing.T) {
	onTorus := func(c *machine.Config) {
		c.Network.Topology = topology.Config{Kind: topology.Torus2D, DimX: 4, DimY: 4}
	}
	switching := func(s router.Switching, topo func(*machine.Config)) func(*machine.Config) {
		return func(c *machine.Config) {
			c.Network.Router.Switching = s
			if topo != nil {
				topo(c)
			}
		}
	}
	noDSM := func(c *machine.Config) { c.DSM = nil }
	type tc struct {
		preset, app string
		iters       int
		edit        func(*machine.Config)
		label       string
		refused     bool // the preset cannot run the application
	}
	var cases []tc
	for _, preset := range PresetNames() {
		if presets[preset]().Mode != machine.Detailed {
			continue
		}
		runs, ok := presetApps[preset]
		if !ok {
			t.Fatalf("detailed preset %s is missing from presetApps", preset)
		}
		for _, app := range AppNames() {
			cases = append(cases, tc{preset: preset, app: app, refused: !slices.Contains(runs, app)})
		}
	}
	cases = append(cases,
		tc{preset: "dsm-2x2", app: "jacobi-dsm", iters: 1},
		tc{preset: "dsm-2x2", app: "jacobi-dsm", iters: 10},
		tc{preset: "dsm-2x2", app: "jacobi", edit: noDSM, label: "no-dsm"},
		tc{preset: "dsm-2x2", app: "matmul", edit: noDSM, label: "no-dsm"},
	)
	// The 4×4 T805 grid on mesh (the preset's) and torus under every
	// switching mode, store-and-forward on the mesh being the cases above.
	for _, app := range []string{"jacobi", "matmul"} {
		for _, s := range []router.Switching{router.StoreAndForward, router.VirtualCutThrough, router.Wormhole} {
			if s != router.StoreAndForward {
				cases = append(cases, tc{preset: "t805-4x4", app: app, edit: switching(s, nil), label: "mesh-" + s.String()})
			}
			cases = append(cases, tc{preset: "t805-4x4", app: app, edit: switching(s, onTorus), label: "torus-" + s.String()})
		}
	}
	want := 0 // cases that must run, per factor
	for _, c := range cases {
		if !c.refused {
			want++
		}
	}
	ran := 0
	for _, k := range timeScales {
		for _, c := range cases {
			if c.refused && k != timeScales[0] {
				continue
			}
			name := c.preset + "/" + c.app
			if k != timeScales[0] {
				name = fmt.Sprintf("k=%d/%s", k, name)
			}
			if c.iters > 0 {
				name += fmt.Sprintf("/iters=%d", c.iters)
			}
			if c.label != "" {
				name += "/" + c.label
			}
			t.Run(name, func(t *testing.T) {
				iters := c.iters
				if iters == 0 {
					iters = 2
				}
				// 64 cells, 2 per processor on the 8×8 grid.
				cells := 64
				if c.preset == "t805-8x8" {
					cells = 128
				}
				spec := RunSpec{Preset: c.preset, App: c.app, Iters: iters, Cells: cells, Dim: 16, Rounds: 4, Bytes: 1024}
				run := func(scale bool) (*machine.Result, error) {
					cfg, drive, err := spec.Resolve()
					if err != nil {
						t.Fatal(err)
					}
					if c.edit != nil {
						c.edit(&cfg)
					}
					// Set by hand: Validate writes the default 8 on a networked
					// machine, which does not divide the 4-byte messages.
					cfg.Network.LocalBytesPerCycle = messageGranule
					if bpc := cfg.Network.Link.BytesPerCycle; bpc%k != 0 {
						cfg.Network.Link.BytesPerCycle = messageGranule // the hybrid cluster's 2
					}
					if scale {
						checkDivisible(t, &cfg, k)
						scaleTime(&cfg, k)
					}
					m, err := machine.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					return drive(m)
				}
				base, err := run(false)
				if c.refused {
					if err == nil {
						t.Fatalf("%s ran %s: add it to presetApps", c.preset, c.app)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				scaled, err := run(true)
				if err != nil {
					t.Fatal(err)
				}
				ran++
				if want := pearl.Time(k) * base.Cycles; scaled.Cycles != want {
					t.Errorf("cycles %d, want %d × %d", scaled.Cycles, k, base.Cycles)
				}
				if scaled.Events != base.Events || scaled.Instructions != base.Instructions {
					t.Errorf("events %d, instructions %d; want %d, %d", scaled.Events, scaled.Instructions, base.Events, base.Instructions)
				}
				compareScaled(t, base.Stats, scaled.Stats, "", k)
			})
		}
	}
	if want *= len(timeScales); ran != want {
		t.Errorf("%d cases ran the relation, want %d", ran, want)
	}
}

// presetApps lists, for every detailed preset, the applications it runs;
// the test checks that every other application is refused. pingpong needs
// exactly two processors, jacobi-dsm a DSM layer, butterfly a power-of-two
// processor count, and matmul at least one row of the 16×16 matrix per
// processor. The message-passing applications need a network node per
// processor, which the SMPs and the hybrid cluster (8 CPUs on 4 nodes) lack.
var presetApps = map[string][]string{
	"dsm-2x2":      {"jacobi", "jacobi-dsm", "matmul", "allreduce", "transpose", "butterfly", "shared"},
	"hybrid-2x2x2": {"shared"},
	"ppc601":       {"jacobi", "matmul", "allreduce", "transpose", "shared"},
	"ppc601-smp4":  {"shared"},
	"ppc601-smp8":  {"shared"},
	"t805-2x1":     {"pingpong", "jacobi", "matmul", "allreduce", "transpose", "butterfly", "shared"},
	"t805-2x2":     {"jacobi", "matmul", "allreduce", "transpose", "butterfly", "shared"},
	"t805-4x4":     {"jacobi", "matmul", "allreduce", "transpose", "butterfly", "shared"},
	"t805-8x8":     {"jacobi", "allreduce", "transpose", "butterfly", "shared"},
}

// compareScaled walks two report trees of the same shape: a metric in
// cycles must be k times its base value, a per-cycle rate 1/k of it,
// anything else equal. Multiplying by a power of two is exact in floating
// point, so every comparison is exact.
func compareScaled(t *testing.T, base, scaled *stats.Set, path string, k int) {
	t.Helper()
	path += "/" + base.Name
	if len(base.Metrics) != len(scaled.Metrics) || len(base.Subsets) != len(scaled.Subsets) {
		t.Fatalf("%s: the scaled report has another shape", path)
	}
	for i, b := range base.Metrics {
		s, want := scaled.Metrics[i], b.Value
		switch {
		case b.Unit == "cyc":
			want *= float64(k)
		case strings.Contains(b.Name, "per cycle"):
			want /= float64(k)
		}
		if s.Name != b.Name || s.Value != want {
			t.Errorf("%s/%s: %v, want %v (base %v %s)", path, s.Name, s.Value, want, b.Value, b.Unit)
		}
	}
	for i := range base.Subsets {
		compareScaled(t, base.Subsets[i], scaled.Subsets[i], path, k)
	}
}

// checkDivisible asserts the relation's precondition on cfg: every
// bytes-per-cycle rate divides every transfer it times and k divides the
// rate. With write-back caches the bus and memory move whole lines; the
// network moves application messages, headers, acks and DSM pages.
func checkDivisible(t *testing.T, cfg *machine.Config, k int) {
	t.Helper()
	h := &cfg.Node.Hierarchy
	var lines []int
	for _, c := range append(append([]cache.Config{}, h.Private...), h.Shared...) {
		if c.Write != cache.WriteBack {
			t.Fatalf("cache %s is not write-back: the bus would move words", c.Name)
		}
		lines = append(lines, c.LineSize)
	}
	net := []int{messageGranule, cfg.Network.Router.HeaderBytes, cfg.Network.AckBytes}
	if cfg.DSM != nil {
		net = append(net, int(cfg.DSM.PageSize))
	}
	type rate struct {
		name  string
		rate  int
		sizes []int
	}
	rates := []rate{
		{"bus width", h.Bus.Width, lines},
		{"memory bytes per cycle", h.Memory.BytesPerCycle, lines},
		{"local bytes per cycle", cfg.Network.LocalBytesPerCycle, net},
	}
	if bpc := cfg.Network.Link.BytesPerCycle; bpc != 0 { // else timed per byte, or absent
		rates = append(rates, rate{"link bytes per cycle", bpc, net})
	}
	for _, r := range rates {
		switch {
		case r.rate == 0:
			t.Fatalf("%s is 0: the configuration was not validated", r.name)
		case r.rate%k != 0:
			t.Fatalf("%s %d is not a multiple of %d", r.name, r.rate, k)
		}
		for _, size := range r.sizes {
			if size%r.rate != 0 {
				t.Fatalf("%s %d does not divide a %d-byte transfer", r.name, r.rate, size)
			}
		}
	}
}

// scaleTime multiplies every latency, overhead and cycles-per-byte of cfg by
// k and divides every bytes-per-cycle rate by k.
func scaleTime(cfg *machine.Config, k int) {
	kt := pearl.Time(k)
	h := &cfg.Node.Hierarchy
	h.L1I.HitLatency *= kt
	for _, levels := range [][]cache.Config{h.Private, h.Shared} {
		for i := range levels {
			levels[i].HitLatency *= kt
		}
	}
	h.CacheToCacheLatency *= kt
	h.DirLookupLatency *= kt
	h.DirMessageLatency *= kt
	h.Bus.ArbitrationDelay *= kt
	h.Bus.Width /= k
	h.Memory.ReadLatency *= kt
	h.Memory.WriteLatency *= kt
	h.Memory.BytesPerCycle /= k

	tm := &cfg.Node.Timing
	for _, a := range []*cpu.ArithTiming{&tm.Add, &tm.Sub, &tm.Mul, &tm.Div, &tm.LoadConst} {
		a.Int *= kt
		a.Long *= kt
		a.Float *= kt
		a.Double *= kt
	}
	tm.Branch *= kt
	tm.Call *= kt
	tm.Ret *= kt

	n := &cfg.Network
	n.Router.RoutingDelay *= kt
	n.Link.PropDelay *= kt
	n.Link.CyclesPerByte *= k
	n.Link.BytesPerCycle /= k
	n.LocalBytesPerCycle /= k
	n.SendOverhead *= kt
	n.RecvOverhead *= kt
	if cfg.DSM != nil {
		cfg.DSM.FaultOverhead *= kt
		cfg.DSM.ServeOverhead *= kt
	}
}
