package topology

import (
	"strings"
	"testing"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec  string
		want  Config
		nodes int
	}{
		{"ring:64", Config{Kind: Ring, Nodes: 64}, 64},
		{"mesh:8x8", Config{Kind: Mesh2D, DimX: 8, DimY: 8}, 64},
		{"torus:4x8", Config{Kind: Torus2D, DimX: 4, DimY: 8}, 32},
		{"torus3d:4x4x4", Config{Kind: Torus3D, DimX: 4, DimY: 4, DimZ: 4}, 64},
		{"hypercube:64", Config{Kind: Hypercube, Nodes: 64}, 64},
		{"star:16", Config{Kind: Star, Nodes: 16}, 16},
		{"full:8", Config{Kind: fullyConnected, Nodes: 8}, 8},
		{"fattree:4x2", Config{Kind: FatTree, Arity: 4, Levels: 2}, 24},
		{"dragonfly:2x2x5", Config{Kind: Dragonfly, Routers: 2, Globals: 2, Groups: 5}, 10},
		{" torus3d : 2 x 3 x 4 ", Config{Kind: Torus3D, DimX: 2, DimY: 3, DimZ: 4}, 24},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.spec)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.spec, got, c.want)
			continue
		}
		tp, err := New(got)
		if err != nil {
			t.Errorf("New(ParseSpec(%q)): %v", c.spec, err)
			continue
		}
		if tp.Nodes() != c.nodes {
			t.Errorf("%q: %d nodes, want %d", c.spec, tp.Nodes(), c.nodes)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		spec    string
		mention string
	}{
		{"blorp:4", "unknown kind"},
		{"ring", "got 0 dimension"},
		{"ring:4x4", "got 2 dimension"},
		{"mesh:8", "mesh:<x>x<y>"},
		{"torus3d:8x8", "torus3d:<x>x<y>x<z>"},
		{"fattree:4", "fattree:<arity>x<levels>"},
		{"dragonfly:4x2", "dragonfly:<routers>x<globals>x<groups>"},
		{"mesh:8xeight", "bad dimension"},
		{"ring:", "got 0 dimension"},
	}
	for _, c := range cases {
		_, err := ParseSpec(c.spec)
		if err == nil {
			t.Errorf("ParseSpec(%q): expected error mentioning %q", c.spec, c.mention)
			continue
		}
		if !strings.Contains(err.Error(), c.mention) {
			t.Errorf("ParseSpec(%q) error %q does not mention %q", c.spec, err, c.mention)
		}
	}
}
