package cache

// Coherence transactions of the hierarchy: the snoopy MESI protocol, the
// full-map directory alternative, and the shared cache tier / memory walk
// both schemes resolve into. A transaction is the part of an access that
// holds the node bus, which serialises them — exactly the Pearl modelling
// style of the original (the bus component "carries out arbitration upon
// multiple accesses").

import "mermaid/internal/pearl"

// txnKind selects what a bus transaction does between winning the bus and
// releasing it.
type txnKind uint8

const (
	// txnPlain moves size bytes between the requester and the shared tier:
	// write-backs, write-throughs and every access of a common hierarchy.
	txnPlain txnKind = iota
	// txnFetch obtains a line for a CPU's private chain: snoops or directory
	// actions, then the data from the shared tier or from a dirty owner.
	txnFetch
	// txnUpgrade invalidates all other copies so a Shared line can be
	// written; no data moves.
	txnUpgrade
)

// transaction is the bus transaction of an access in flight.
type transaction struct {
	kind  txnKind
	addr  uint64 // selects the bus channel
	size  uint64 // bytes transferred
	write bool   // plain: a write at the shared tier; fetch: for writing (BusRdX)

	// Coherent transactions: the line at coherence granularity, what the
	// other CPUs' caches answered, and the directory's loop index. (The
	// directory entry itself is access.dir: without a pointer in it, starting
	// a transaction is a plain copy.)
	ola             uint64
	sharedElsewhere bool
	suppliedDirty   bool
	ok              bool // upgrade: this CPU's copy survived until the bus was won
	o               int  // next CPU to look at
}

// sharedWalk is the walk of a transaction through the shared cache tier:
// the level being visited and, for every level above it that missed and
// allocates on the way back, a frame.
type sharedWalk struct {
	lvl    int
	addr   uint64
	size   uint64
	write  bool
	frames []sharedFrame
}

type sharedFrame struct {
	lvl   int
	la    uint64
	write bool
}

// coherent returns the fetch or upgrade transaction for the line (in
// coherence granularity) on behalf of the access's CPU.
func (a *access) coherent(kind txnKind, ola uint64, forWrite bool) transaction {
	outerC := a.h.priv[a.cpu][a.h.outer]
	return transaction{kind: kind, ola: ola, write: forWrite, addr: ola << outerC.lineShift, size: outerC.LineSize()}
}

// transact starts a bus transaction; the access continues at ret when it is
// over.
func (a *access) transact(t transaction, ret pc) {
	a.txn, a.ret, a.pc = t, ret, pcAcquire
}

// walkShared sends the transaction through the shared tier, falling through
// to memory; lines are allocated on the way back (write-back semantics at
// shared levels; write-through levels pass stores to the next level).
func (a *access) walkShared(write bool) {
	a.walk.lvl, a.walk.addr, a.walk.size, a.walk.write = 0, a.txn.addr, a.txn.size, write
	a.pc = pcShared
}

// runTransaction continues the access's bus transaction up to its next wait,
// or to its end, when it reports Done with the access back at a.ret. For a
// fetch, a.txn then tells the MESI state the line may be installed in.
func (a *access) runTransaction() pearl.Step {
	h, t, w := a.h, &a.txn, &a.walk
	for {
		switch a.pc {
		case pcAcquire:
			if s := h.bus.Acquire(t.addr, &a.sub); !s.Done {
				return s
			}
			switch t.kind {
			case txnPlain:
				a.walkShared(t.write)
			case txnFetch:
				if t.write {
					h.busRdX.Inc()
				} else {
					h.busRd.Inc()
				}
				a.pc = pcData
				switch h.cfg.Coherence {
				case Snoopy:
					t.sharedElsewhere, t.suppliedDirty = h.snoop(a.cpu, t.ola, t.write)
				case Directory:
					a.pc = pcDirLookup
					return pearl.Step{Hold: h.cfg.DirLookupLatency}
				}
			case txnUpgrade:
				// This CPU's copy may have disappeared before the bus was won;
				// the access must then re-fetch.
				if _, t.ok = h.priv[a.cpu][h.outer].Probe(t.ola); !t.ok {
					a.pc = pcRelease
					continue
				}
				h.busUpgr.Inc()
				a.pc = pcRelease
				switch h.cfg.Coherence {
				case Snoopy:
					for o := range h.priv {
						if o == a.cpu {
							continue
						}
						h.invalidateRemote(o, t)
					}
				case Directory:
					a.pc = pcDirLookup
					return pearl.Step{Hold: h.cfg.DirLookupLatency}
				}
			}

		// The directory phase: lookup, then invalidations (upgrade, write
		// miss) or an intervention (read of an owned line), and bookkeeping.
		// One message latency per remote CPU involved.
		case pcDirLookup:
			h.dirLookups.Inc()
			a.dir = h.dirEntryFor(t.ola)
			switch {
			case t.kind == txnUpgrade || t.write:
				t.o = 0
				a.pc = pcDirNext
			case a.dir.owner >= 0 && a.dir.owner != a.cpu && a.dir.sharers&(1<<uint(a.dir.owner)) != 0:
				// Intervention: the owner may hold the line Exclusive or
				// Modified (E -> M upgrades are silent); downgrade it,
				// flushing if dirty.
				a.pc = pcDirIntervened
				return pearl.Step{Hold: h.cfg.DirMessageLatency}
			default:
				a.pc = pcDirRead
			}

		case pcDirNext:
			for t.o < len(h.priv) && (t.o == a.cpu || a.dir.sharers&(1<<uint(t.o)) == 0) {
				t.o++
			}
			if t.o < len(h.priv) {
				a.pc = pcDirInvalidated
				return pearl.Step{Hold: h.cfg.DirMessageLatency}
			}
			a.dir.sharers = 1 << uint(a.cpu)
			a.dir.owner = a.cpu
			if t.kind == txnUpgrade {
				a.pc = pcRelease
			} else {
				a.pc = pcData
			}

		case pcDirInvalidated:
			h.dirMsgs.Inc()
			h.invalidateRemote(t.o, t)
			t.o++
			a.pc = pcDirNext

		case pcDirIntervened:
			h.dirMsgs.Inc()
			e := a.dir
			oc := h.priv[e.owner][h.outer]
			if st, ok := oc.Probe(t.ola); ok && (st == Modified || st == Exclusive) {
				if st == Modified {
					t.suppliedDirty = true
					oc.S.SnoopSupplies.Inc()
				}
				oc.SetState(t.ola, Shared)
				oc.S.SnoopDowngrades.Inc()
				h.snoopDemoteInner(e.owner, t.addr, t.size)
			}
			e.owner = -1
			a.pc = pcDirRead
			fallthrough

		case pcDirRead:
			e := a.dir
			t.sharedElsewhere = e.sharers&^(1<<uint(a.cpu)) != 0
			e.sharers |= 1 << uint(a.cpu)
			if !t.sharedElsewhere {
				// Sole sharer: granted Exclusive, so record ownership — a later
				// silent E -> M upgrade leaves the directory unaware otherwise.
				e.owner = a.cpu
			}
			a.pc = pcData
			fallthrough

		case pcData:
			if !t.suppliedDirty {
				a.walkShared(false)
				continue
			}
			// Illinois MESI: the dirty owner supplies the line and it is
			// written back to the shared tier in the same transaction.
			a.pc = pcSupplied
			if h.cfg.CacheToCacheLatency > 0 {
				return pearl.Step{Hold: h.cfg.CacheToCacheLatency}
			}

		case pcSupplied:
			h.c2c.Inc()
			a.walkShared(true)
			fallthrough

		case pcShared:
			if w.lvl >= len(h.shd) {
				a.pc = pcMemory
				continue
			}
			a.pc = pcSharedLookup
			if lat := h.shd[w.lvl].cfg.HitLatency; lat > 0 {
				return pearl.Step{Hold: lat}
			}
			fallthrough

		case pcSharedLookup:
			c := h.shd[w.lvl]
			la := c.LineAddr(w.addr)
			passOn := w.write && c.cfg.Write == WriteThrough // no write-allocate
			if c.Lookup(la) != nil {
				c.S.Hits.Inc()
				if !passOn {
					if w.write {
						c.SetState(la, Modified)
					}
					a.pc = pcSharedReturn
					continue
				}
			} else {
				c.S.Misses.Inc()
				if !passOn {
					// Fetch the line from below, then allocate here.
					w.frames = append(w.frames, sharedFrame{lvl: w.lvl, la: la, write: w.write})
					w.size, w.write = c.LineSize(), false
				}
			}
			w.lvl++
			a.pc = pcShared

		case pcMemory:
			if s := h.mem.Access(w.write, w.size, &a.sub); !s.Done {
				return s
			}
			a.pc = pcSharedReturn
			fallthrough

		case pcSharedReturn:
			n := len(w.frames)
			if n == 0 {
				a.pc = pcTransfer
				continue
			}
			f := w.frames[n-1]
			w.frames = w.frames[:n-1]
			c := h.shd[f.lvl]
			newState := Exclusive
			if f.write {
				newState = Modified
			}
			if v, had := c.Insert(f.la, newState); had && v.State == Modified {
				// The dirty victim goes down a level before the walk returns.
				w.lvl, w.addr, w.size, w.write = f.lvl+1, v.LineAddr<<c.lineShift, c.LineSize(), true
				a.pc = pcShared
			}

		case pcTransfer:
			if s := h.bus.Transfer(t.size, &a.sub); !s.Done {
				return s
			}
			a.pc = pcRelease
			fallthrough

		case pcRelease:
			h.bus.Release(t.addr)
			a.pc = a.ret
			return pearl.Step{Done: true}
		}
	}
}

// invalidateRemote kills CPU o's copies of the transaction's line: the
// effect of a BusRdX, a BusUpgr or a directory invalidation there. A dirty
// copy supplies the data of a fetch.
func (h *Hierarchy) invalidateRemote(o int, t *transaction) {
	oc := h.priv[o][h.outer]
	if st, ok := oc.Invalidate(t.ola); ok {
		oc.S.SnoopInvalidates.Inc()
		if t.kind == txnFetch && st == Modified {
			t.suppliedDirty = true
			oc.S.SnoopSupplies.Inc()
		}
	}
	h.snoopDropInner(o, t.addr, t.size)
}

// snoop runs the broadcast phase of a snoopy transaction: every other CPU's
// outermost cache observes the request and reacts. It reports whether any
// other CPU retains a copy and whether a dirty copy supplied the data.
func (h *Hierarchy) snoop(cpu int, ola uint64, forWrite bool) (sharedElsewhere, suppliedDirty bool) {
	outerShift := h.priv[cpu][h.outer].lineShift
	base := ola << outerShift
	size := h.priv[cpu][h.outer].LineSize()
	for o := range h.priv {
		if o == cpu {
			continue
		}
		oc := h.priv[o][h.outer]
		st, ok := oc.Probe(ola)
		// The instruction cache may hold the line even when the data chain
		// does not (split L1 at the coherence boundary).
		iHolds := false
		if h.cfg.SplitL1 && len(h.priv[o]) == 1 {
			if _, ok2 := h.privI[o].Probe(h.privI[o].LineAddr(base)); ok2 {
				iHolds = true
			}
		}
		if !ok && !iHolds {
			continue
		}
		if forWrite {
			// BusRdX: all other copies die.
			if ok {
				oc.Invalidate(ola)
				oc.S.SnoopInvalidates.Inc()
				if st == Modified {
					suppliedDirty = true
					oc.S.SnoopSupplies.Inc()
				}
			}
			h.snoopDropInner(o, base, size)
		} else {
			// BusRd: dirty owners flush and everyone downgrades to Shared.
			if ok {
				switch st {
				case Modified:
					suppliedDirty = true
					oc.S.SnoopSupplies.Inc()
					oc.SetState(ola, Shared)
					oc.S.SnoopDowngrades.Inc()
				case Exclusive:
					oc.SetState(ola, Shared)
					oc.S.SnoopDowngrades.Inc()
				}
				// Inner copies keep their (clean) lines; demote dirty inner
				// copies to keep the "inner M implies outer M" invariant.
				h.snoopDemoteInner(o, base, size)
			}
			sharedElsewhere = sharedElsewhere || ok || iHolds
		}
	}
	return sharedElsewhere, suppliedDirty
}

// snoopDropInner invalidates all inner-level copies of the range on a remote
// CPU after a BusRdX.
func (h *Hierarchy) snoopDropInner(o int, base, size uint64) {
	for lvl := 0; lvl < h.outer; lvl++ {
		c := h.priv[o][lvl]
		h.invalidateRange(c, base, size, &c.S.SnoopInvalidates)
	}
	if h.cfg.SplitL1 {
		ic := h.privI[o]
		h.invalidateRange(ic, base, size, &ic.S.SnoopInvalidates)
	}
}

// snoopDemoteInner downgrades dirty inner copies to Shared after a BusRd.
func (h *Hierarchy) snoopDemoteInner(o int, base, size uint64) {
	for lvl := 0; lvl < h.outer; lvl++ {
		c := h.priv[o][lvl]
		for a := base; a < base+size; a += c.LineSize() {
			la := c.LineAddr(a)
			if st, ok := c.Probe(la); ok && st == Modified {
				c.SetState(la, Shared)
				c.S.SnoopDowngrades.Inc()
			}
		}
	}
}

func (h *Hierarchy) dirEntryFor(ola uint64) *dirEntry {
	e, ok := h.dir[ola]
	if !ok {
		e = &dirEntry{owner: -1}
		h.dir[ola] = e
	}
	return e
}

// dirEvict records that a CPU no longer holds the line (replacement hint,
// keeping the full-map directory exact).
func (h *Hierarchy) dirEvict(cpu int, ola uint64) {
	e, ok := h.dir[ola]
	if !ok {
		return
	}
	e.sharers &^= 1 << uint(cpu)
	if e.owner == cpu {
		e.owner = -1
	}
	if e.sharers == 0 {
		delete(h.dir, ola)
	}
}
