package stochastic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"testing"

	"mermaid/internal/ops"
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
// flattened by Generate, and handed to a simulator by Sources.
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
}
