package stochastic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/trace"
)

// digestDescs covers what the generator can be asked for: both levels, every
// pattern, synchronous and asynchronous transfers, jittered sizes, CV > 0,
// strided and uniform references, two phases of three iterations each, and
// five nodes, so that alltoall's partner rounds run past the node count.
// The small phases fit beside the communication operations that precede
// them; the large ones do not.
var digestDescs = []struct {
	name string
	desc Desc
}{
	{"instr/nearest-jitter+alltoall-strided", Desc{
		Nodes: 5, Level: InstructionLevel, Seed: 11, Iterations: 3,
		Phases: []Phase{
			{Instructions: 300, CV: 0.2, Comm: Comm{Pattern: NearestNeighbor, Bytes: 64, Jitter: true}},
			{Instructions: 100, Mem: MemModel{Base: 0x2000, WorkingSet: 4096, Stride: 24, Access: ops.MemDouble},
				Comm: Comm{Pattern: AllToAll, Bytes: 128}},
		},
	}},
	{"instr/exchange-async+hotspot-async", Desc{
		Nodes: 5, Level: InstructionLevel, Seed: 12, Iterations: 3,
		Phases: []Phase{
			{Instructions: 200, Mix: Mix{Load: 1, Branch: 1}, Comm: Comm{Pattern: Exchange, Bytes: 256, Async: true}},
			{Instructions: 10, CV: 0.5, Comm: Comm{Pattern: Hotspot, Bytes: 96, Jitter: true, Async: true}},
		},
	}},
	{"instr/random+none", Desc{
		Nodes: 5, Level: InstructionLevel, Seed: 13, Iterations: 3,
		Phases: []Phase{
			{Instructions: 7, CV: 1.5, Comm: Comm{Pattern: RandomPairs, Bytes: 32}},
			{Instructions: 900, Mem: MemModel{WorkingSet: 1 << 20, Access: ops.MemByte}, Comm: Comm{Pattern: noComm}},
		},
	}},
	{"task/nearest+hotspot-async-jitter", Desc{
		Nodes: 5, Level: TaskLevel, Seed: 14, Iterations: 3,
		Phases: []Phase{
			{Duration: 1000, CV: 0.3, Comm: Comm{Pattern: NearestNeighbor, Bytes: 512}},
			{Duration: 40, Comm: Comm{Pattern: Hotspot, Bytes: 64, Jitter: true, Async: true}},
		},
	}},
	{"task/exchange+alltoall-async", Desc{
		Nodes: 5, Level: TaskLevel, Seed: 15, Iterations: 3,
		Phases: []Phase{
			{Duration: 700, CV: 0.1, Comm: Comm{Pattern: Exchange, Bytes: 4096}},
			{Duration: 300, Comm: Comm{Pattern: AllToAll, Bytes: 200, Async: true}},
		},
	}},
	{"task/random-async-jitter+none", Desc{
		Nodes: 5, Level: TaskLevel, Seed: 16, Iterations: 3,
		Phases: []Phase{
			{Duration: 250, CV: 2, Comm: Comm{Pattern: RandomPairs, Bytes: 1000, Jitter: true, Async: true}},
			{Duration: 0, Comm: Comm{Pattern: noComm}},
		},
	}},
}

// streamDigests are the first 16 hex digits of the SHA-256 of every node's
// stream (opDigest), per description of digestDescs, as the generator
// produced them when operations were still appended to one growing slice
// per node.
var streamDigests = map[string][]string{
	"instr/nearest-jitter+alltoall-strided": {"d64700924f8df79c", "fc0599e36d43dfa2", "39b50deb2502a6a6", "65b8e312d85f10c8", "f6cd717d3a6dbbb7"},
	"instr/exchange-async+hotspot-async":    {"e866f6a4818862c8", "eb7c5552d3f39f95", "42ca12e7976e1703", "3b2e160014a2f189", "ad261e56f3c0b2c2"},
	"instr/random+none":                     {"2dc975706307947b", "c27fc3863b820571", "693c0cee80dd106d", "41617f86953bd115", "7cc3a5ec60f73ced"},
	"task/nearest+hotspot-async-jitter":     {"6be7e42d67b0124c", "199d545aab184e1a", "8771cbe031730371", "df87786c9ed2cb77", "241b9da80a7c0a7e"},
	"task/exchange+alltoall-async":          {"0ac29f762c27e5ea", "89b3e972bd2b75a9", "2a991e6aa3ef8da0", "e089d62fa6809633", "f7e0223d430f3f78"},
	"task/random-async-jitter+none":         {"5f5eedfe3bfa1ca4", "cf6e087bb54bff4d", "4ab45e4f9d5c0fd1", "2f601aaf49ef4786", "1ec8630bdd87c70d"},
}

// opDigest hashes a stream field by field, in a fixed byte order.
func opDigest(stream []ops.Op) string {
	h := sha256.New()
	for _, o := range stream {
		binary.Write(h, binary.LittleEndian, o) // a hash's Write never fails
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// drain reads a source through a cursor, consuming its operations in turn by
// Peek then Advance, by two Peeks then Next, and by Next alone.
func drain(t *testing.T, src trace.Source) []ops.Op {
	t.Helper()
	cur := trace.NewCursor(src)
	var out []ops.Op
	for i := 0; ; i++ {
		var ev trace.Event
		var err error
		switch i % 3 {
		case 0:
			var o *ops.Op
			if o, err = cur.Peek(); err == nil {
				ev.Op = *o
				cur.Advance()
			}
		case 1:
			cur.Peek()
			ev, err = cur.Next()
		default:
			ev, err = cur.Next()
		}
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ev.Op)
	}
}

// TestStochasticDigests pins every node's generated stream, read both ways:
// flattened by Generate, and handed to a simulator by Sources; first for
// digestDescs, node by node, then for netDescs, one digest per description.
func TestStochasticDigests(t *testing.T) {
	for _, c := range digestDescs {
		t.Run(c.name, func(t *testing.T) {
			traces, err := Generate(c.desc)
			if err != nil {
				t.Fatal(err)
			}
			srcs, err := Sources(c.desc)
			if err != nil {
				t.Fatal(err)
			}
			want := streamDigests[c.name]
			for node := range traces {
				got := opDigest(traces[node])
				if node < len(want) && got != want[node] {
					t.Errorf("node %d: Generate's stream digest %s, want %s", node, got, want[node])
				}
				if s := opDigest(drain(t, srcs[node])); s != got {
					t.Errorf("node %d: Sources' stream digest %s, Generate's %s", node, s, got)
				}
			}
			if len(want) != len(traces) {
				t.Errorf("%d digests pinned for %d nodes", len(want), len(traces))
			}
		})
	}
	for i, d := range netDescs() {
		t.Run(fmt.Sprintf("net/%02d", i), func(t *testing.T) {
			traces, err := Generate(d)
			if err != nil {
				t.Fatal(err)
			}
			srcs, err := Sources(d)
			if err != nil {
				t.Fatal(err)
			}
			drained := make([][]ops.Op, len(srcs))
			for n, s := range srcs {
				drained[n] = drain(t, s)
			}
			got := descDigest(traces)
			if s := descDigest(drained); s != got {
				t.Errorf("Sources' digest %s, Generate's %s", s, got)
			}
			if i >= len(netDigests) {
				t.Fatalf("no digest pinned; got %s", got)
			}
			if got != netDigests[i] {
				t.Errorf("digest %s, want %s", got, netDigests[i])
			}
		})
	}
}

// netDescs draws 40 descriptions from a fixed seed, so that the byte-exact
// net reaches what the six hand-written cases do not: mixes with zero
// weights, every Access size, CV up to 1.5 (amounts of 0 among them),
// working sets from 1 byte to 2^40, strides larger than the working set, and
// a Base less than a working set below 2^64, so that addresses wrap. Every
// pattern comes with and without Async and Jitter, at both levels.
func netDescs() []Desc {
	r := pearl.NewRNG(2024)
	patterns := []PatternKind{noComm, NearestNeighbor, Exchange, AllToAll, Hotspot, RandomPairs, ""}
	cvs := []float64{0, 0.1, 0.5, 1, 1.5}
	sets := []uint64{0, 1, 7, 64, 4096, 1 << 20, 1 << 40}
	strides := []uint64{0, 0, 1, 3, 8, 24, 1 << 41}
	weight := func() float64 {
		if r.Intn(3) == 0 {
			return 0
		}
		return float64(1 + r.Intn(9))
	}
	descs := make([]Desc, 40)
	for i := range descs {
		d := Desc{
			Nodes:      1 + r.Intn(7),
			Level:      InstructionLevel,
			Seed:       r.Uint64(),
			Iterations: 1 + r.Intn(3),
			Phases:     make([]Phase, 1+r.Intn(3)),
		}
		if i%4 == 3 {
			d.Level = TaskLevel
		}
		for j := range d.Phases {
			ph := &d.Phases[j]
			ph.Instructions = int64(r.Intn(400))
			ph.Duration = int64(r.Intn(2000))
			ph.CV = cvs[r.Intn(len(cvs))]
			if r.Intn(5) != 0 {
				ph.Mix = Mix{Load: weight(), Store: weight(), IntArith: weight(), FltArith: weight(), Branch: weight()}
			}
			ph.Mem = MemModel{
				Base:       r.Uint64() >> uint(r.Intn(64)),
				WorkingSet: sets[r.Intn(len(sets))],
				Stride:     strides[r.Intn(len(strides))],
				Access:     ops.MemType(r.Intn(7)),
			}
			if r.Intn(4) == 0 {
				ph.Mem.Base = -ph.Mem.WorkingSet + ph.Mem.WorkingSet/3 // wraps past 2^64
			}
			ph.Comm = Comm{
				Pattern: patterns[(i+3*j)%len(patterns)],
				Bytes:   uint32(1 + r.Intn(4096)),
				Jitter:  r.Intn(2) == 0,
				Async:   r.Intn(2) == 0,
			}
		}
		descs[i] = d
	}
	return descs
}

// netDigests are the first 16 hex digits of descDigest for each of
// netDescs, in order, as the generator produced them when every computation
// was stored as operations in segments.
var netDigests = []string{
	"736d119019b536ac", "ea3534170716a131", "637331c69b39fd10", "bbf0c71f5132e381",
	"a8ac9e78012ee244", "2ab7a12dff0940d8", "f45083522dedda15", "eb35eadc1cf66b6e",
	"4e2e2f6f0a412ed3", "5c88d873f9d1a536", "f3840f65c1a3b0e4", "2188af1748f94d8b",
	"200dbd8fd662f3f5", "e010f3f8345dd72a", "08c44431139dbf7f", "c57ee8d394747c05",
	"f5ed09bc3003bf22", "736cd7c70cdf1e9e", "60526a5c65329f29", "5ef75275ee68f417",
	"96c2fea9ac8b166f", "ec4554529f51ef9e", "af8a6c881ab177b2", "18d1cb045f46334c",
	"f3a518b2287b86e3", "f9a5ce28cc5a798d", "a6de942b30efaee9", "f7cc8452a9bd17be",
	"dbf7fc04bb95165a", "a2ba495d01d5d279", "58993355bd7672d9", "6069b56897ab2589",
	"d00bb37bb1d8673e", "295d288fc5a74f83", "e86faf81d9cfadd2", "360cca658a77554b",
	"584b7fe9d31b05d8", "ad6ea41778d86522", "0d7536e7f7e11280", "5eefb6f53e126704",
}

// descDigest hashes every node's stream, each preceded by its length.
func descDigest(traces [][]ops.Op) string {
	h := sha256.New()
	for _, tr := range traces {
		binary.Write(h, binary.LittleEndian, uint64(len(tr)))
		for _, o := range tr {
			binary.Write(h, binary.LittleEndian, o)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
