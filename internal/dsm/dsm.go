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
// only: page contents are never represented. Nothing in it owns a stack:
// a page fault is a resumable call (Ensure) made from the faulting CPU's
// chain, and every manager and request handler is a pearl.Chain of its own
// whose protocol messages are network.Comm operations, the same as a CPU's.
package dsm

import (
	"fmt"

	"mermaid/internal/analysis"
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
// below tagBase.
const (
	// tagBase is the first tag reserved for the DSM protocol.
	tagBase uint32 = 0xD500_0000

	tagManager = tagBase // requests to a node's manager
	tagReply   = tagBase + 1
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

// Layer is the machine-wide DSM instance: per-node page tables and managers
// over the communication network.
type Layer struct {
	cfg   Config
	k     *pearl.Kernel
	net   *network.Network
	col   *analysis.Collector
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

// New creates the layer and starts one manager per node.
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
		col:    env.Collect,
		nodes:  n,
		rights: make([]map[uint64]pageRights, n),
		dir:    make([]map[uint64]*dirEntry, n),
		caches: make([]CacheInvalidator, n),
	}
	for i := 0; i < n; i++ {
		l.rights[i] = make(map[uint64]pageRights)
		l.dir[i] = make(map[uint64]*dirEntry)
		m := &manager{l: l, node: i}
		l.start(&m.c, m.step)
	}
	return l, nil
}

// start runs a manager's or handler's step function on a chain of its own,
// its waits reported to the bottleneck collector.
func (l *Layer) start(c *pearl.Chain, step func() pearl.Step) {
	c.Init(l.k, step)
	if l.col.Enabled() {
		c.Spans = l.col.BlockSpan
	}
	c.Start()
}

// send begins node from's asynchronous protocol message to node to on c. Its
// error is dropped: to is a node of the network, which is all Begin checks.
func (l *Layer) send(c *network.Comm, from, to int, size, tag uint32, payload any) {
	_ = c.Begin(l.net.Node(from), ops.Op{Kind: ops.ASend, Peer: int32(to), Size: size, Tag: tag}, payload)
}

// recv begins node's receive of the protocol message tagged tag on c.
func (l *Layer) recv(c *network.Comm, node int, tag uint32) {
	_ = c.Begin(l.net.Node(node), ops.Op{Kind: ops.Recv, Peer: ops.AnyPeer, Tag: tag}, nil)
}

// request is a protocol request in flight: the state of an ask call.
type request struct {
	comm network.Comm
	pc   uint8
	tag  uint32
}

// ask sends msg from node from to node to's manager and receives the reply
// on a fresh tag. It is a resumable call: called again with the same
// arguments after each wait it returns, until Done; the reply is then
// r.comm.Message().
func (l *Layer) ask(r *request, from, to int, msg protoMsg) pearl.Step {
	if r.pc == 0 {
		l.seq++
		r.tag = tagReply + l.seq
		msg.replyTag = r.tag
		l.send(&r.comm, from, to, 16, tagManager, msg)
		r.pc = 1
	}
	s := r.comm.Step()
	if s.Done && r.pc == 1 { // sent: receive the reply
		l.recv(&r.comm, from, r.tag)
		r.pc = 2
		s = r.comm.Step()
	}
	if s.Done {
		r.pc = 0
	}
	return s
}

// AttachCaches registers the node's cache hierarchy for page-invalidation
// callbacks.
func (l *Layer) AttachCaches(node int, inv CacheInvalidator) { l.caches[node] = inv }

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

// Fault is a page fault in progress: the state of an Ensure call across its
// waits, kept by the caller. Its zero value is ready for the next call.
type Fault struct {
	pc    uint8
	page  uint64
	start pearl.Time
	req   request
}

// Ensure obtains the rights needed for an access of the given kind to addr
// by node: at once if the node's rights suffice, else through the protocol —
// the fault overhead, then a request to the page's home manager and its
// reply. It must complete before the local memory access is performed.
// Ensure is a resumable call, made from the faulting CPU's pearl.Chain step
// function: the caller calls it again with the same arguments and Fault after
// each wait it returns has been served, until it returns Done.
func (l *Layer) Ensure(node int, write bool, addr uint64, f *Fault) pearl.Step {
	if f.pc == 0 {
		f.page = l.pageOf(addr)
		have := l.rights[node][f.page]
		if have == rightsWrite || (!write && have >= rightsRead) {
			return pearl.Step{Done: true}
		}
		f.start = l.k.Now()
		if write {
			l.faultsWrite.Inc()
		} else {
			l.faultsRead.Inc()
		}
		f.pc = 1
		if l.cfg.FaultOverhead > 0 {
			return pearl.Step{Hold: l.cfg.FaultOverhead}
		}
	}
	kind := mReadReq
	if write {
		kind = mWriteReq
	}
	if s := l.ask(&f.req, node, l.homeOf(f.page), protoMsg{kind: kind, page: f.page, from: node}); !s.Done {
		return s
	}
	if f.req.comm.Message().Payload.(replyMsg).write {
		l.rights[node][f.page] = rightsWrite
	} else {
		l.rights[node][f.page] = rightsRead
	}
	l.faultCycles += l.k.Now() - f.start
	f.pc = 0
	return pearl.Step{Done: true}
}

// manager is a node's protocol server: it starts a handler per read/write
// request (which may wait on sub-requests) and serves invalidations and
// flush demands itself, so it can never deadlock.
type manager struct {
	l    *Layer
	node int
	c    pearl.Chain
	pc   uint8
	comm network.Comm
}

// Manager program counters.
const (
	mgRecv  uint8 = iota // receive the next request
	mgReq                // ... which is arriving
	mgServe              // the service overhead has passed
	mgReply              // the answer to an invalidation or flush is on its way
)

func (m *manager) step() pearl.Step {
	l := m.l
	for {
		switch m.pc {
		case mgRecv:
			l.recv(&m.comm, m.node, tagManager)
			m.pc = mgReq
			fallthrough
		case mgReq:
			if s := m.comm.Step(); !s.Done {
				return s
			}
			m.pc = mgServe
			if l.cfg.ServeOverhead > 0 {
				return pearl.Step{Hold: l.cfg.ServeOverhead}
			}
			fallthrough
		case mgServe:
			req := m.comm.Message().Payload.(protoMsg)
			m.pc = mgReply
			switch req.kind {
			case mReadReq, mWriteReq:
				h := &handler{l: l, home: m.node, req: req}
				l.start(&h.c, h.step)
				m.pc = mgRecv
			case mInvalidate:
				// Drop the local copy and cached lines, then ack.
				l.dropPage(m.node, req.page)
				l.invals.Inc()
				l.send(&m.comm, m.node, req.from, 8, req.replyTag, nil)
			case mFlushDemand:
				// Give up ownership: demote to read, return the page.
				if l.rights[m.node][req.page] == rightsWrite {
					l.rights[m.node][req.page] = rightsRead
				}
				l.pageMoves.Inc()
				l.send(&m.comm, m.node, req.from, uint32(l.cfg.PageSize), req.replyTag, nil)
			}
		case mgReply:
			if s := m.comm.Step(); !s.Done {
				return s
			}
			m.pc = mgRecv
		}
	}
}

// handler serves one read or write request at the page's home node, holding
// the page's lock throughout, so requests for one page are served one at a
// time.
type handler struct {
	l    *Layer
	home int
	req  protoMsg
	c    pearl.Chain
	e    *dirEntry
	pc   uint8
	asks []protoMsg // the flush demand and invalidations to send, in order
	to   []int      // ... and to whom
	sub  request
}

// Handler program counters.
const (
	hdLock   uint8 = iota // take the page lock
	hdLocked              // ... which is granted
	hdAsk                 // ask the next node, or reply
	hdReply               // the reply is on its way; then unlock
)

func (h *handler) step() pearl.Step {
	l, req := h.l, &h.req
	for {
		switch h.pc {
		case hdLock:
			h.e = l.dirFor(h.home, req.page)
			h.pc = hdLocked
			return pearl.Step{Acquire: h.e.lock}
		case hdLocked:
			// The directory entry is this handler's until it unlocks, so what
			// the request takes is known now. If a writer exists elsewhere,
			// demand a flush first; the owner keeps a read copy.
			e := h.e
			if e.owner >= 0 && e.owner != req.from {
				h.asks = append(h.asks, protoMsg{kind: mFlushDemand, page: req.page, from: h.home})
				h.to = append(h.to, e.owner)
				e.copyset |= 1 << uint(e.owner)
				e.owner = -1
			}
			if req.kind == mWriteReq {
				// Invalidate every other copy and collect acknowledgements.
				for o := 0; o < l.nodes; o++ {
					if o != req.from && e.copyset&(1<<uint(o)) != 0 {
						h.asks = append(h.asks, protoMsg{kind: mInvalidate, page: req.page, from: h.home})
						h.to = append(h.to, o)
					}
				}
				e.owner = req.from
				e.copyset = 1 << uint(req.from)
			} else {
				e.copyset |= 1 << uint(req.from) // read request: grant a shared copy
			}
			h.pc = hdAsk
		case hdAsk:
			for len(h.asks) > 0 {
				if s := l.ask(&h.sub, h.home, h.to[0], h.asks[0]); !s.Done {
					return s
				}
				h.asks, h.to = h.asks[1:], h.to[1:]
			}
			l.pageMoves.Inc()
			l.send(&h.sub.comm, h.home, req.from, uint32(l.cfg.PageSize), req.replyTag,
				replyMsg{page: req.page, write: req.kind == mWriteReq})
			h.pc = hdReply
		case hdReply:
			if s := h.sub.comm.Step(); !s.Done {
				return s
			}
			h.e.lock.Release()
			return pearl.Step{Done: true}
		}
	}
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
