package pgas

// Privatization: the record-wrapping + remote-value-forwarding pattern
// the paper inherits from Chapel's arrays, domains and distributions
// (and from CAL/CGL/CHGL/RCUArray). A privatized object is replicated
// once per locale; a small handle (here, just a table index) is
// copied *by value* into every task, so resolving the locale-local
// instance is a plain indexed load into locale-private memory —
// zero communication, which the comm-counter tests verify. This is
// what lets the EpochManager's pin/unpin path stay flat across
// locales (Figure 7).
//
// Each locale's table is an immutable slice behind an atomic pointer
// (the way gas.Heap publishes its chunk directory): NewPrivatized and
// Destroy build a modified copy under the locale's mutex and republish
// it, so Get takes no lock and writes no shared word — every task and
// every inbound delivery of a locale starts its structure op here.

// Privatized is the copyable handle to a per-locale replicated
// instance of T. The zero value is invalid; create with NewPrivatized.
type Privatized[T any] struct {
	pid int // index into every locale's privTable; 0 via zero value is invalid-by-convention
	ok  bool
}

// NewPrivatized replicates an instance across every locale: create is
// invoked once on each locale (on that locale, as a coforall) and the
// resulting handle can be copied freely between tasks and locales.
// The constructor hook receives a Ctx pinned to the locale it builds
// for, so per-locale state (heaps, words, limbo lists) lands on the
// right locale.
//
// Destroyed ids are recycled, so long-lived systems that churn
// privatized objects keep every locale's table dense.
func NewPrivatized[T any](c *Ctx, create func(ctx *Ctx) *T) Privatized[T] {
	s := c.sys
	s.privMu.Lock()
	var pid int
	if n := len(s.privFree); n > 0 {
		pid = s.privFree[n-1]
		s.privFree = s.privFree[:n-1]
	} else {
		pid = s.privNext
		s.privNext++
	}
	s.privMu.Unlock()

	c.CoforallLocales(func(lc *Ctx) {
		lc.here.setPriv(pid, create(lc))
	})
	return Privatized[T]{pid: pid, ok: true}
}

// priv resolves a privatization id in the locale's published table.
func (l *Locale) priv(pid int) any {
	return (*l.privTable.Load())[pid]
}

// setPriv republishes the locale's table with slot pid holding inst
// (nil clears it), growing the table if needed, and returns what the
// slot held. Readers keep whichever version they loaded.
func (l *Locale) setPriv(pid int, inst any) (old any) {
	l.privMu.Lock()
	defer l.privMu.Unlock()
	var cur []any
	if p := l.privTable.Load(); p != nil {
		cur = *p
	}
	next := make([]any, max(len(cur), pid+1))
	copy(next, cur)
	old, next[pid] = next[pid], inst
	l.privTable.Store(&next)
	return old
}

// ID returns the handle's privatization id: unique among the live
// privatized objects of a system (destroyed ids are recycled), so it
// can stand for the object's identity in a comparable key.
func (p Privatized[T]) ID() int { return p.pid }

// Valid distinguishes a handle produced by NewPrivatized from the
// (invalid) zero value. It does not track destruction: handles are
// values, so no copy can observe that Destroy ran — not using a
// destroyed handle is the caller's contract (see Destroy).
func (p Privatized[T]) Valid() bool { return p.ok }

// Destroy tears the replicated object down: finalize (which may be
// nil) runs once on every locale against that locale's instance — the
// per-locale destructor hook, mirroring the constructor hook of
// NewPrivatized — the table slots are cleared so the instances can be
// collected, and the id returns to the registry's free list for reuse.
//
// The caller must guarantee no task will use any copy of the handle
// after Destroy begins: a Get through a stale handle panics (nil
// instance) or, worse, observes an unrelated object that recycled the
// id. This is the same obligation Chapel places on deleting a
// privatized class instance. Destroy detects the misuses it can —
// destroying an id whose slot is already empty, or whose id is
// already on the free list — and panics rather than corrupting the
// registry; a double-destroy racing a recycle of the same id is
// fundamentally indistinguishable from a valid destroy and stays on
// the caller.
func (p Privatized[T]) Destroy(c *Ctx, finalize func(ctx *Ctx, inst *T)) {
	if !p.ok {
		panic("pgas: Destroy of an invalid Privatized handle")
	}
	s := c.sys
	s.privMu.Lock()
	for _, free := range s.privFree {
		if free == p.pid {
			s.privMu.Unlock()
			panic("pgas: double Destroy of a Privatized handle")
		}
	}
	s.privMu.Unlock()
	if c.here.priv(p.pid) == nil {
		panic("pgas: Destroy of an already-destroyed Privatized handle")
	}
	c.CoforallLocales(func(lc *Ctx) {
		inst := lc.here.setPriv(p.pid, nil)
		if finalize != nil && inst != nil {
			finalize(lc, inst.(*T))
		}
	})
	s.privMu.Lock()
	s.privFree = append(s.privFree, p.pid)
	s.privMu.Unlock()
}

// Get returns the instance that lives on the calling task's locale.
// It performs no communication. An invalid (zero-value) handle panics
// here rather than silently aliasing pid 0 — the first object ever
// registered.
func (p Privatized[T]) Get(c *Ctx) *T {
	if !p.ok {
		panic("pgas: Get through an invalid (zero-value) Privatized handle")
	}
	return c.here.priv(p.pid).(*T)
}

// GetOn returns the instance on a specific locale. Unlike Get this may
// be used to inspect peers (e.g. in tests); it still performs no
// simulated communication because in a real system the caller would be
// running on that locale inside an on-statement.
func (p Privatized[T]) GetOn(c *Ctx, locale int) *T {
	if !p.ok {
		panic("pgas: GetOn through an invalid (zero-value) Privatized handle")
	}
	return c.sys.locales[locale].priv(p.pid).(*T)
}
