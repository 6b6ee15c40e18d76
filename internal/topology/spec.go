package topology

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSpec parses a compact command-line topology specification of the form
// "kind:dims", where dims is an "x"-separated list of sizes whose meaning
// depends on the family:
//
//	ring:64            64 nodes in a ring
//	mesh:8x8           8 x 8 mesh
//	torus:8x8          8 x 8 torus
//	torus3d:16x16x16   16 x 16 x 16 torus
//	hypercube:64       64 nodes (a power of two)
//	star:16            hub plus 15 leaves
//	full:8             8 nodes, fully connected
//	fattree:32x3       arity-32 fat-tree with 3 switch tiers (32^3 hosts)
//	dragonfly:8x4x33   8 routers/group, 4 global links/router, 33 groups
//
// The returned Config has not been validated beyond arity of the dims list;
// pass it to New for the family's own parameter checks.
func ParseSpec(spec string) (Config, error) {
	kindStr, dimStr, _ := strings.Cut(spec, ":")
	kind := Kind(strings.TrimSpace(kindStr))

	var dims []int
	if dimStr != "" {
		for _, part := range strings.Split(dimStr, "x") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return Config{}, fmt.Errorf("topology spec %q: bad dimension %q", spec, part)
			}
			dims = append(dims, v)
		}
	}

	want := func(n int, shape string) error {
		if len(dims) != n {
			return fmt.Errorf("topology spec %q: %s takes %q, got %d dimension(s)",
				spec, kind, shape, len(dims))
		}
		return nil
	}

	cfg := Config{Kind: kind}
	switch kind {
	case Ring, Hypercube, Star, fullyConnected:
		if err := want(1, string(kind)+":<nodes>"); err != nil {
			return Config{}, err
		}
		cfg.Nodes = dims[0]
	case Mesh2D, Torus2D:
		if err := want(2, string(kind)+":<x>x<y>"); err != nil {
			return Config{}, err
		}
		cfg.DimX, cfg.DimY = dims[0], dims[1]
	case Torus3D:
		if err := want(3, "torus3d:<x>x<y>x<z>"); err != nil {
			return Config{}, err
		}
		cfg.DimX, cfg.DimY, cfg.DimZ = dims[0], dims[1], dims[2]
	case FatTree:
		if err := want(2, "fattree:<arity>x<levels>"); err != nil {
			return Config{}, err
		}
		cfg.Arity, cfg.Levels = dims[0], dims[1]
	case Dragonfly:
		if err := want(3, "dragonfly:<routers>x<globals>x<groups>"); err != nil {
			return Config{}, err
		}
		cfg.Routers, cfg.Globals, cfg.Groups = dims[0], dims[1], dims[2]
	default:
		return Config{}, fmt.Errorf("topology spec %q: unknown kind %q (have ring, mesh, torus, torus3d, hypercube, star, full, fattree, dragonfly)", spec, kindStr)
	}
	return cfg, nil
}
