package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mermaid/internal/stats"
)

// experimentDigests pins SHA-256 of each deterministic experiment's whole
// output — the rendered table, its CSV under the unit schema, the sorted
// keys and every artifact — at its registry defaults ("name") and at every
// point of the pipeline's smoke grid and the benchmark's sweep grid
// ("name?param=value,..."). They were printed before the studies read their
// runs' reports; any simulated number, column or key that moves changes one.
// Timeline artifacts are pinned apart, in experimentTimelineDigests, split
// off by commit 944c536.
var experimentDigests = map[string]string{
	"cache-sweep":                        "5af4806099514f8e4059be9312f4c4c5fff16b7e54f632ee202d89e4b67e521d",
	"cache-sweep?assocs=1,sizes=8":       "0af67d28c130824f70f8514d3870bd32bb6d0779010c184b25002bf43be59a30",
	"cache-sweep?assocs=2,sizes=8":       "2c1818306bf304db756b8f77a67caf52dfdb61e5c08f436fa2628fcce2c782f8",
	"calibration":                        "a08724461eff6f480fcf53cc69170659840c02c4c0074250f141ecdd58c8c027",
	"coherence":                          "4abe0a7f2f1843787544fff79b5c346fbcf01bc2bb3b927b5bd8340a01fc09c7",
	"fault-resilience":                   "1272fbbfed1989407f836e790da061b98cd7954643ab25ccaad0b492cd3c2a13",
	"fault-resilience?cells=128,iters=5": "fa765495fc4db41968c13173f1cca3736564c7574a80500f6efcd510be47aaee",
	"imbalance":                          "2fd9ff5fc3d8928d11d139833733be8ba9f77e4730507bc88b48a24db746872e",
	"imbalance?cv=0,0.2":                 "9048e1911b12625aaf02ad2cb9aa438ecbd610547dca4fe3c2b1e87f6f807df3",
	"imbalance?cv=0,0.5":                 "eaf739d76852913ab3b6f28da51bdf019fa9dfb2aef6db53267b940a6bdaf162",
	"interconnect":                       "9ae056f17345f0c600087a58bc1048578a760138cf11cf6558d6fa4421499ecd",
	"network-sweep":                      "2a9487f9d5cb799333689a8f87865a886300325a548f170277663bb83f26a60f",
	"network-sweep?bytes=2048":           "2a9487f9d5cb799333689a8f87865a886300325a548f170277663bb83f26a60f",
	"network-sweep?bytes=512":            "78d040717a7155375c21c10018f663e0c540b5900241d341f4ecbf963456d252",
	"network-sweep?bytes=8192":           "54bbb7e6f5618fdbcb74853b6d6b8706dab952c79fc81310f7eee515aec00ba3",
	"routing":                            "67e7ad3f4e3163e40a89fb12ebebbfd61298ea3c3767e77b9d8f919173f3cd26",
	"scaling":                            "0286911a333a97da9d3da9b6f9886cd90424a8149af227d5117c6196b251f648",
	"scaling?cells=128,iters=3":          "6b8e87315f185a5fd48dad5173a3d9c0099888354c2b68e6521409a2f592eedd",
	"scaling?cells=256,iters=3":          "91cc2b3e1e1efe982a57c800ad0b513cc6ca96c13a74ddc946db43e42db7bfc5",
	"stochastic-vs-annotated":            "78413f4167af03e95a20933d65bb10fc315f4f48433b3a782366cd2a9aed6ac6",
	"table1":                             "c5e3f0630a38c913bc26c383c5adfc5bea47df7e284bd08e272533f988f2b700",
	"validity":                           "18e7cfe13377987867ec74bcae7b70ca20ad414806203c98afc7793b389dbe22",
}

// experimentTimelineDigests pins SHA-256 of the timeline artifacts of every
// case that writes one; TestExperimentDigests prints it.
var experimentTimelineDigests = map[string]string{
	"validity": "6daf5eee6ae69f3719d89f9a0590eb9bb911f86848051d5414a5f1e6474ea6d8",
}

// digestGrids are the grid files whose points the digests cover.
var digestGrids = []string{"../../testdata/pipeline/smoke-grid.json", "../../benchmark/grid.json"}

// digestCases returns every case the digests cover: each deterministic
// experiment at its defaults and each point of the grid files, keyed by id.
func digestCases(t *testing.T) map[string]Spec {
	t.Helper()
	cases := map[string]Spec{}
	for _, e := range All() {
		if e.Deterministic {
			cases[e.Name] = Spec{}
		}
	}
	for _, path := range digestGrids {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var g struct {
			Experiments []struct {
				Name string
				Grid map[string][]string
			}
		}
		if err := json.Unmarshal(data, &g); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, ge := range g.Experiments {
			points := []map[string]string{{}}
			for _, name := range slices.Sorted(maps.Keys(ge.Grid)) {
				var next []map[string]string
				for _, p := range points {
					for _, v := range ge.Grid[name] {
						q := map[string]string{name: v}
						for k, pv := range p {
							q[k] = pv
						}
						next = append(next, q)
					}
				}
				points = next
			}
			for _, p := range points {
				id := ge.Name
				if len(p) > 0 {
					var parts []string
					for _, k := range slices.Sorted(maps.Keys(p)) {
						parts = append(parts, k+"="+p[k])
					}
					id += "?" + strings.Join(parts, ",")
				}
				cases[id] = Spec{Sweep: p}
			}
		}
	}
	return cases
}

// outputDigest hashes everything an experiment outputs, and its timeline
// artifacts apart ("" when it writes none).
func outputDigest(t *testing.T, e Experiment, rs *ResultSet) (output, timeline string) {
	t.Helper()
	h, th := sha256.New(), sha256.New()
	if err := rs.Table.Render(h); err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := rs.Table.RenderCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := stats.ValidateCSV(bytes.NewReader(csv.Bytes()), rs.Table.Schema(e.Units...)); err != nil {
		t.Fatalf("the CSV fails its table's schema: %v", err)
	}
	h.Write(csv.Bytes())
	for _, k := range slices.Sorted(maps.Keys(rs.Keys)) {
		fmt.Fprintf(h, "%s=%s\n", k, strconv.FormatFloat(rs.Keys[k], 'g', -1, 64))
	}
	timelines := false
	for _, a := range rs.Artifacts {
		w := h
		if a.Name == "timeline" {
			w, timelines = th, true
		}
		fmt.Fprintf(w, "artifact %s\n", a.Name)
		if err := a.Render(w); err != nil {
			t.Fatal(err)
		}
	}
	if timelines {
		timeline = hex.EncodeToString(th.Sum(nil))
	}
	return hex.EncodeToString(h.Sum(nil)), timeline
}

// TestExperimentDigests is what says a change to how studies are built left
// every deterministic output as it was.
func TestExperimentDigests(t *testing.T) {
	cases := digestCases(t)
	var (
		mu          sync.Mutex
		got         = map[string]string{}
		gotTimeline = map[string]string{}
	)
	t.Run("cases", func(t *testing.T) {
		for id, spec := range cases {
			t.Run(id, func(t *testing.T) {
				t.Parallel()
				name, _, _ := strings.Cut(id, "?")
				e, ok := ByName(name)
				if !ok {
					t.Fatalf("no experiment %q", name)
				}
				rs, err := e.Execute(spec)
				if err != nil {
					t.Fatal(err)
				}
				d, tl := outputDigest(t, e, rs)
				mu.Lock()
				got[id] = d
				if tl != "" {
					gotTimeline[id] = tl
				}
				mu.Unlock()
				if want, ok := experimentDigests[id]; !ok {
					t.Errorf("no digest pinned (got %s)", d)
				} else if d != want {
					t.Errorf("digest %s, pinned %s: the experiment's output moved", d, want)
				}
				if want := experimentTimelineDigests[id]; tl != want {
					t.Errorf("timeline digest %q, pinned %q: the experiment's timeline moved", tl, want)
				}
			})
		}
	})
	if len(experimentDigests) != len(cases) || len(experimentTimelineDigests) != len(gotTimeline) {
		t.Errorf("%d digests pinned for %d cases, %d timeline digests for %d", len(experimentDigests), len(cases),
			len(experimentTimelineDigests), len(gotTimeline))
	}
	if t.Failed() {
		for _, table := range []struct {
			what string
			got  map[string]string
		}{{"digests", got}, {"timeline digests", gotTimeline}} {
			var b strings.Builder
			for _, id := range slices.Sorted(maps.Keys(table.got)) {
				fmt.Fprintf(&b, "\t%q: %q,\n", id, table.got[id])
			}
			t.Logf("%s of this tree:\n%s", table.what, b.String())
		}
	}
}
