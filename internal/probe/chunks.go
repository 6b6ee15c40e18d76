package probe

import "math/bits"

// Chunks is an append-only sequence stored in chunks that double in size up
// to a bound, then stay at it. An append never moves what is stored, so a
// long recording leaves no outgrown copies behind for the garbage collector,
// and a pointer-free element type leaves it nothing to scan: the record
// store of the timeline and of the bottleneck collector's spans. The zero
// value is an empty sequence.
type Chunks[T any] struct {
	chunks [][]T
	n      int
}

const (
	chunkFirst     = 16 // elements in the first chunk
	chunkDoublings = 6  // chunks double this many times, to chunkFirst<<6 elements
	chunkBig       = chunkFirst << chunkDoublings
	// chunkBigFrom is the index of the first element past the doubling
	// chunks, where every chunk holds chunkBig elements.
	chunkBigFrom = chunkFirst * (1<<(chunkDoublings+1) - 1)
)

// Append adds v at the end.
func (c *Chunks[T]) Append(v T) {
	k := len(c.chunks) - 1
	if k < 0 || len(c.chunks[k]) == cap(c.chunks[k]) {
		size := chunkBig
		if len(c.chunks) <= chunkDoublings {
			size = chunkFirst << len(c.chunks)
		}
		c.chunks = append(c.chunks, make([]T, 0, size))
		k++
	}
	c.chunks[k] = append(c.chunks[k], v)
	c.n++
}

// Len returns the number of elements.
func (c *Chunks[T]) Len() int { return c.n }

// At returns element i, which must be below Len.
func (c *Chunks[T]) At(i int) *T {
	if i >= chunkBigFrom {
		j := i - chunkBigFrom
		return &c.chunks[chunkDoublings+1+j/chunkBig][j%chunkBig]
	}
	k := bits.Len(uint(i/chunkFirst+1)) - 1
	return &c.chunks[k][i-chunkFirst*(1<<k-1)]
}
