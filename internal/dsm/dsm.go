// Package dsm implements the virtual shared memory layer the paper names as
// its next step (§5): "we will use a virtual shared memory in the future to
// hide all explicit communication". Applications issue ordinary load and
// store annotations against a shared address segment; the architecture model
// resolves accesses that miss the node's rights with a page-based
// distributed-shared-memory protocol over the message-passing network, so no
// explicit communication appears at the application level.
//
// The protocol is a fixed-distributed-manager, single-writer /
// multiple-reader invalidation scheme (Li–Hudak style): every page has a
// home node (page number modulo nodes) whose manager serialises requests;
// read faults fetch a read-only copy, write faults invalidate all copies and
// migrate ownership. Protocol traffic uses the same routers and links as
// application messages, in a reserved tag space.
//
// Like the rest of Mermaid, the layer models timing and protocol events
// only: page contents are never represented.
package dsm

import (
	"fmt"

	"mermaid/internal/network"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
)

// Config parameterises the shared segment and the protocol costs.
type Config struct {
	// Base and Size delimit the shared address segment.
	Base uint64
	Size uint64
	// PageSize is the coherence unit in bytes (power of two).
	PageSize uint64
	// FaultOverhead is the software cost of taking a page fault, charged on
	// the faulting processor.
	FaultOverhead pearl.Time
	// ServeOverhead is the manager's handling cost per protocol message.
	ServeOverhead pearl.Time
}

// DefaultConfig returns a 4 MiB shared segment of 4 KiB pages.
func DefaultConfig() Config {
	return Config{
		Base:          0x8000_0000,
		Size:          4 << 20,
		PageSize:      4 << 10,
		FaultOverhead: 50,
		ServeOverhead: 25,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.PageSize == 0 || c.PageSize&(c.PageSize-1) != 0 {
		return fmt.Errorf("dsm: page size %d not a power of two", c.PageSize)
	}
	if c.Size == 0 || c.Size%c.PageSize != 0 {
		return fmt.Errorf("dsm: segment size %d not a multiple of the page size", c.Size)
	}
	if c.Base%c.PageSize != 0 {
		return fmt.Errorf("dsm: base %#x not page aligned", c.Base)
	}
	if c.FaultOverhead < 0 || c.ServeOverhead < 0 {
		return fmt.Errorf("dsm: negative overhead")
	}
	return nil
}

// The DSM protocol owns the top of the tag space; applications must stay
// below TagBase.
const (
	// TagBase is the first tag reserved for the DSM protocol.
	TagBase uint32 = 0xD500_0000

	tagManager = TagBase // requests to a node's manager
	tagReply   = TagBase + 1
)

// protocol message kinds (carried as payloads of network messages).
type msgKind uint8

const (
	mReadReq msgKind = iota
	mWriteReq
	mInvalidate
	mFlushDemand
)

type protoMsg struct {
	kind     msgKind
	page     uint64
	from     int    // requesting node
	replyTag uint32 // where the final reply goes
}

type replyMsg struct {
	page  uint64
	write bool
}

// pageRights is a node's local access right to one page.
type pageRights uint8

const (
	rightsNone pageRights = iota
	rightsRead
	rightsWrite
)

// dirEntry is the home-side directory record for one page.
type dirEntry struct {
	owner   int    // node holding the page writable; -1 if none
	copyset uint64 // bitmask of nodes with read copies
	lock    *pearl.Resource
}

// CacheInvalidator lets the layer drop cached lines of an invalidated page
// from a node's cache hierarchy (inclusion between the DSM page table and
// the hardware caches). The node model provides it.
type CacheInvalidator interface {
	InvalidateSharedRange(base, size uint64)
}

// Layer is the machine-wide DSM instance: per-node page tables and manager
// processes over the communication network.
type Layer struct {
	cfg   Config
	k     *pearl.Kernel
	net   *network.Network
	nodes int

	rights []map[uint64]pageRights // per node
	dir    []map[uint64]*dirEntry  // per node (entries for pages it is home of)
	caches []CacheInvalidator      // per node; entries may be nil
	seq    uint32

	faultsRead  stats.Counter
	faultsWrite stats.Counter
	invals      stats.Counter
	pageMoves   stats.Counter
	faultCycles pearl.Time
}

// New creates the layer and spawns one manager process per node. Protocol
// messages only travel between nodes of net, so their sends cannot fail: the
// layer drops NodeIf.Send's error.
func New(env sim.Env, net *network.Network, cfg Config) (*Layer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := env.Kernel
	if k == nil {
		return nil, fmt.Errorf("dsm: nil kernel in environment")
	}
	n := net.Nodes()
	if n > 64 {
		return nil, fmt.Errorf("dsm: copyset bitmask supports at most 64 nodes, got %d", n)
	}
	l := &Layer{
		cfg:    cfg,
		k:      k,
		net:    net,
		nodes:  n,
		rights: make([]map[uint64]pageRights, n),
		dir:    make([]map[uint64]*dirEntry, n),
		caches: make([]CacheInvalidator, n),
	}
	for i := 0; i < n; i++ {
		l.rights[i] = make(map[uint64]pageRights)
		l.dir[i] = make(map[uint64]*dirEntry)
		i := i
		k.Spawn(fmt.Sprintf("dsm.mgr%d", i), func(p *pearl.Process) { l.manager(p, i) })
	}
	return l, nil
}

// AttachCaches registers the node's cache hierarchy for page-invalidation
// callbacks.
func (l *Layer) AttachCaches(node int, inv CacheInvalidator) { l.caches[node] = inv }

// Config returns the layer's configuration.
func (l *Layer) Config() Config { return l.cfg }

// InRange reports whether addr falls in the shared segment.
func (l *Layer) InRange(addr uint64) bool {
	return addr >= l.cfg.Base && addr < l.cfg.Base+l.cfg.Size
}

func (l *Layer) pageOf(addr uint64) uint64 { return (addr - l.cfg.Base) / l.cfg.PageSize }
func (l *Layer) pageBase(page uint64) uint64 {
	return l.cfg.Base + page*l.cfg.PageSize
}
func (l *Layer) homeOf(page uint64) int { return int(page % uint64(l.nodes)) }

// Stats reports protocol counters.
func (l *Layer) Stats() *stats.Set {
	s := stats.NewSet("dsm")
	s.PutUint("read faults", l.faultsRead.Value(), "")
	s.PutUint("write faults", l.faultsWrite.Value(), "")
	s.PutUint("invalidations", l.invals.Value(), "")
	s.PutUint("page transfers", l.pageMoves.Value(), "")
	s.PutInt("fault stall", int64(l.faultCycles), "cyc")
	return s
}

// ReadFaults, WriteFaults, Invalidations and PageTransfers expose counters.
func (l *Layer) ReadFaults() uint64    { return l.faultsRead.Value() }
func (l *Layer) WriteFaults() uint64   { return l.faultsWrite.Value() }
func (l *Layer) Invalidations() uint64 { return l.invals.Value() }
func (l *Layer) PageTransfers() uint64 { return l.pageMoves.Value() }

// Ensure obtains the rights needed for an access of the given kind to addr
// by node, blocking the calling (CPU) process through the protocol if the
// local rights are insufficient. It must be called before the local memory
// access is performed.
func (l *Layer) Ensure(p *pearl.Process, node int, write bool, addr uint64) {
	page := l.pageOf(addr)
	have := l.rights[node][page]
	if have == rightsWrite || (!write && have >= rightsRead) {
		return
	}
	start := p.Now()
	if write {
		l.faultsWrite.Inc()
	} else {
		l.faultsRead.Inc()
	}
	if l.cfg.FaultOverhead > 0 {
		p.Hold(l.cfg.FaultOverhead)
	}
	// Ask the page's home manager and await the reply on a unique tag.
	l.seq++
	rt := tagReply + l.seq
	kind := mReadReq
	if write {
		kind = mWriteReq
	}
	nif := l.net.Node(node)
	_ = nif.Send(p, l.homeOf(page), 16, tagManager, protoMsg{kind: kind, page: page, from: node, replyTag: rt}, false)
	m := nif.Recv(p, ops.AnyPeer, rt)
	rep := m.Payload.(replyMsg)
	if rep.write {
		l.rights[node][page] = rightsWrite
	} else {
		l.rights[node][page] = rightsRead
	}
	l.faultCycles += p.Now() - start
}

// manager is the per-node protocol server: it dispatches read/write requests
// to per-request handler processes (which may block on sub-requests) and
// serves invalidations and flush demands inline, so it can never deadlock.
func (l *Layer) manager(p *pearl.Process, node int) {
	nif := l.net.Node(node)
	for {
		m := nif.Recv(p, ops.AnyPeer, tagManager)
		req := m.Payload.(protoMsg)
		if l.cfg.ServeOverhead > 0 {
			p.Hold(l.cfg.ServeOverhead)
		}
		switch req.kind {
		case mReadReq, mWriteReq:
			req := req
			l.k.Spawn(fmt.Sprintf("dsm.h%d.p%d", node, req.page), func(hp *pearl.Process) {
				l.serve(hp, node, req)
			})
		case mInvalidate:
			// Drop the local copy and cached lines, then ack.
			l.dropPage(node, req.page)
			l.invals.Inc()
			_ = nif.Send(p, req.from, 8, req.replyTag, nil, false)
		case mFlushDemand:
			// Give up ownership: demote to read, return the page.
			if l.rights[node][req.page] == rightsWrite {
				l.rights[node][req.page] = rightsRead
			}
			l.pageMoves.Inc()
			_ = nif.Send(p, req.from, uint32(l.cfg.PageSize), req.replyTag, nil, false)
		}
	}
}

// serve handles one read or write request at the page's home node.
func (l *Layer) serve(p *pearl.Process, home int, req protoMsg) {
	e := l.dirFor(home, req.page)
	p.Acquire(e.lock) // serialise per page
	defer e.lock.Release()
	nif := l.net.Node(home)

	// If a writer exists elsewhere, demand a flush first.
	if e.owner >= 0 && e.owner != req.from {
		l.seq++
		ft := tagReply + l.seq
		_ = nif.Send(p, e.owner, 16, tagManager, protoMsg{kind: mFlushDemand, page: req.page, from: home, replyTag: ft}, false)
		nif.Recv(p, ops.AnyPeer, ft)
		// Owner keeps a read copy.
		e.copyset |= 1 << uint(e.owner)
		e.owner = -1
	}

	if req.kind == mWriteReq {
		// Invalidate every other copy and collect acknowledgements.
		for o := 0; o < l.nodes; o++ {
			if o == req.from || e.copyset&(1<<uint(o)) == 0 {
				continue
			}
			l.seq++
			it := tagReply + l.seq
			_ = nif.Send(p, o, 16, tagManager, protoMsg{kind: mInvalidate, page: req.page, from: home, replyTag: it}, false)
			nif.Recv(p, ops.AnyPeer, it)
			e.copyset &^= 1 << uint(o)
		}
		e.owner = req.from
		e.copyset = 1 << uint(req.from)
		l.pageMoves.Inc()
		_ = nif.Send(p, req.from, uint32(l.cfg.PageSize), req.replyTag, replyMsg{page: req.page, write: true}, false)
		return
	}

	// Read request: grant a shared copy.
	e.copyset |= 1 << uint(req.from)
	l.pageMoves.Inc()
	_ = nif.Send(p, req.from, uint32(l.cfg.PageSize), req.replyTag, replyMsg{page: req.page}, false)
}

func (l *Layer) dirFor(home int, page uint64) *dirEntry {
	e, ok := l.dir[home][page]
	if !ok {
		e = &dirEntry{owner: -1, lock: l.k.NewResource(fmt.Sprintf("dsm.page%d", page), 1)}
		l.dir[home][page] = e
	}
	return e
}

// dropPage removes the node's rights and flushes the page's lines from its
// hardware caches.
func (l *Layer) dropPage(node int, page uint64) {
	delete(l.rights[node], page)
	if c := l.caches[node]; c != nil {
		c.InvalidateSharedRange(l.pageBase(page), l.cfg.PageSize)
	}
}
