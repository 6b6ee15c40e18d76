package topology

import "fmt"

// cube is the k-ary n-cube behind ring, mesh, torus and torus3d: dims
// dimensions (1 to 3) of size[d] nodes each, numbered in dimension order so
// that coordinate d of a node is node/stride[d] % size[d]. On a torus
// (wrap) every dimension closes into a ring; on a mesh its edge ports are
// unconnected. Port 2d goes up dimension d and port 2d+1 down. Route is
// dimension-order — the lowest differing dimension first, the shorter way
// round on a torus, ties to the up port — and the wrap edge of each
// direction is its dateline (Dally–Seitz virtual-channel deadlock
// avoidance), so a route crosses each dimension's dateline at most once.
type cube struct {
	name         string
	nodes, dims  int
	size, stride [3]int
	wrap         bool
}

// newRing builds a bidirectional ring of n nodes (n >= 2).
func newRing(n int) (Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: ring needs >= 2 nodes, got %d", n)
	}
	name := fmt.Sprintf("ring(%d)", n)
	return newCube(name, name, true, n)
}

// NewMesh builds a w x h 2-D mesh with dimension-order (XY) routing.
func NewMesh(w, h int) (Topology, error) {
	if w < 1 || h < 1 || product(w, h) < 2 {
		return nil, fmt.Errorf("topology: mesh %dx%d too small", w, h)
	}
	return newCube(fmt.Sprintf("mesh(%dx%d)", w, h), fmt.Sprintf("mesh %dx%d", w, h), false, w, h)
}

// NewTorus builds a w x h 2-D torus (wrap-around mesh).
func NewTorus(w, h int) (Topology, error) {
	if w < 2 || h < 2 {
		return nil, fmt.Errorf("topology: torus %dx%d needs both dimensions >= 2", w, h)
	}
	return newCube(fmt.Sprintf("torus(%dx%d)", w, h), fmt.Sprintf("torus %dx%d", w, h), true, w, h)
}

// NewTorus3D builds an x*y*z 3-D torus with dimension-order (XYZ) routing,
// each dimension taking the shorter way around, and per-dimension datelines
// at the wrap edges (as on the 2-D torus).
func NewTorus3D(x, y, z int) (Topology, error) {
	if x < 2 || y < 2 || z < 2 {
		return nil, fmt.Errorf("topology: torus3d %dx%dx%d needs every dimension >= 2 (fields DimX, DimY, DimZ)", x, y, z)
	}
	return newCube(fmt.Sprintf("torus3d(%dx%dx%d)", x, y, z), fmt.Sprintf("torus3d %dx%dx%d", x, y, z), true, x, y, z)
}

// newCube applies the size bounds, reporting a violation under label, and
// builds the cube of the given dimension sizes (each >= 1).
func newCube(name, label string, wrap bool, size ...int) (Topology, error) {
	nodes := product(size...)
	if err := checkSize(label, nodes, 2*len(size)); err != nil {
		return nil, err
	}
	c := &cube{name: name, nodes: nodes, dims: len(size), wrap: wrap}
	stride := 1
	for d, s := range size {
		c.size[d], c.stride[d] = s, stride
		stride *= s
	}
	return c, nil
}

func (c *cube) Name() string         { return c.name }
func (c *cube) Nodes() int           { return c.nodes }
func (c *cube) Degree() int          { return 2 * c.dims }
func (c *cube) PortDim(port int) int { return port >> 1 }

// coord returns node's coordinate along dimension d; the first dimension
// needs no division and the last no remainder.
func (c *cube) coord(node, d int) int {
	if d > 0 {
		node /= c.stride[d]
	}
	if d < c.dims-1 {
		node %= c.size[d]
	}
	return node
}

func (c *cube) Neighbor(node, port int) int {
	if port < 0 || port >= 2*c.dims {
		return -1
	}
	d := port >> 1
	x, s, st := c.coord(node, d), c.size[d], c.stride[d]
	up := port&1 == 0
	switch {
	case up && x+1 < s:
		return node + st
	case !up && x > 0:
		return node - st
	case !c.wrap:
		return -1
	case up:
		return node - x*st // round to coordinate 0
	}
	return node + (s-1)*st // round to coordinate s-1
}

// Route peels one coordinate per dimension off both ends and turns at the
// first that differs; the last dimension is what remains.
func (c *cube) Route(at, to int) int {
	last := c.dims - 1
	for d := 0; d < last; d++ {
		s := c.size[d]
		if a, t := at%s, to%s; a != t {
			return c.step(d, a, t)
		}
		at, to = at/s, to/s
	}
	if at == to {
		panic("topology: Route(at, at)")
	}
	return c.step(last, at, to)
}

// step is the port that moves coordinate a of dimension d towards t (a != t).
func (c *cube) step(d, a, t int) int {
	up := t > a
	if c.wrap {
		fwd := t - a
		if fwd < 0 {
			fwd += c.size[d]
		}
		up = 2*fwd <= c.size[d]
	}
	if up {
		return 2 * d
	}
	return 2*d + 1
}

// MinimalPorts returns the step of every differing dimension, both ports of
// a torus dimension whose two ways round are equally long.
func (c *cube) MinimalPorts(at, to int) []int {
	var out []int
	for d := 0; d < c.dims; d++ {
		s := c.size[d]
		a, t := at%s, to%s
		at, to = at/s, to/s
		switch {
		case a == t:
		case c.wrap && 2*((t-a+s)%s) == s:
			out = append(out, 2*d, 2*d+1)
		default:
			out = append(out, c.step(d, a, t))
		}
	}
	return out
}

func (c *cube) Dateline(node, port int) bool {
	if !c.wrap || port < 0 || port >= 2*c.dims {
		return false
	}
	x := c.coord(node, port>>1)
	if port&1 == 0 {
		return x == c.size[port>>1]-1
	}
	return x == 0
}
