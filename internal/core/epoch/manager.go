package epoch

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"

	"gopgas/internal/gas"
	"gopgas/internal/pgas"
	"gopgas/internal/trace"
)

// Epochs take the values 1..4 (advancing as e → (e mod 4) + 1); 0 is
// reserved to mean "not in an epoch". Listing 4 keeps three limbo
// generations; this port keeps four, because an advance publishes the
// new epoch to the locales' caches one at a time. While it does, a
// reader on an updated locale pins e+1 and may hold a node that a
// lagging locale unlinks and files under e. With three generations
// that node is freed at the next advance, which the e+1 pin allows;
// with four it waits one advance more, until every pin that can hold
// it has gone (DESIGN.md §Epoch-based reclamation has the argument).
const (
	numEpochs  = 4
	firstEpoch = 1
)

// reclaimEpochOf returns which generation is safe to reclaim once the
// global epoch has advanced to e: e−3, the one neither e, e−1 nor e−2.
// Every object in it was deferred under a cache that read e−3, so every
// reader that can still hold it is pinned in e−4..e−2, and the scan
// that allowed this advance found every pin in e−1.
func reclaimEpochOf(e uint64) uint64 { return e%numEpochs + 1 }

// nextEpoch returns the successor of e in the 1→2→3→4→1 cycle.
func nextEpoch(e uint64) uint64 { return e%numEpochs + 1 }

// globalEpoch is the single coherent epoch all locales come to
// consensus on. It is a class instance homed on locale 0 and accessed
// through network atomics — the one piece of the manager that is
// deliberately not privatized.
type globalEpoch struct {
	epoch          *pgas.Word64
	isSettingEpoch *pgas.Word64
}

// instance is one locale's privatized EpochManager state. All accesses
// from tasks on that locale touch only this struct (processor
// atomics), which is what keeps the pin/unpin path communication-free.
type instance struct {
	em     EpochManager
	locale int

	// localeEpoch caches the global epoch ("Local Epoch" in Figure 2);
	// pin reads it instead of the remote global epoch.
	localeEpoch atomic.Uint64

	// isSettingEpoch is the local election flag: first-come-first-
	// served arbitration so at most one task per locale pursues the
	// global flag.
	isSettingEpoch atomic.Uint32

	// limbo[1..4] are the four generations of deferred objects; they
	// share one node pool (newGenerations).
	limbo [numEpochs + 1]*LimboList

	// reg holds the allocated and free token lists.
	reg tokenRegistry

	// objsToDelete are the scatter lists: dead objects sorted by owning
	// locale during reclamation so each destination receives one bulk
	// transfer. Only the elected reclaimer touches them.
	objsToDelete [][]gas.Addr

	// Statistics (diagnostic, processor atomics).
	deferred      atomic.Int64
	reclaimed     atomic.Int64
	localBackoff  atomic.Int64 // tryReclaim returns: lost local election
	globalBackoff atomic.Int64 // tryReclaim returns: lost global election
	advanceFail   atomic.Int64 // election won but a pinned token blocked advance
	advances      atomic.Int64 // successful epoch advances driven by this locale
}

// EpochManager is the copyable, record-wrapped handle to a distributed
// epoch-based reclamation manager. Copying the handle (for example
// into every task of a forall) costs nothing and carries no remote
// references: each use resolves the privatized per-locale instance
// with zero communication.
type EpochManager struct {
	priv   pgas.Privatized[instance]
	global *globalEpoch
}

// NewEpochManager creates a manager distributed over every locale of
// the system: one privatized instance per locale plus the global epoch
// object on locale 0.
func NewEpochManager(c *pgas.Ctx) EpochManager {
	g := &globalEpoch{
		epoch:          pgas.NewWord64(c, 0, firstEpoch),
		isSettingEpoch: pgas.NewWord64(c, 0, 0),
	}
	var em EpochManager
	em.global = g
	em.priv = pgas.NewPrivatized(c, func(lc *pgas.Ctx) *instance {
		inst := &instance{
			locale:       lc.Here(),
			objsToDelete: make([][]gas.Addr, lc.NumLocales()),
		}
		inst.reg.init()
		inst.localeEpoch.Store(firstEpoch)
		inst.limbo = newGenerations(lc)
		return inst
	})
	// Patch the back-handle now that priv exists (tokens reach the
	// manager through their instance).
	c.VisitLocales(func(lc *pgas.Ctx) {
		em.priv.Get(lc).em = em
	})
	return em
}

// Register obtains a token on the calling task's locale, recycling a
// previously relinquished one when available. The token starts
// quiescent (not pinned).
func (em EpochManager) Register(c *pgas.Ctx) *Token {
	li := em.priv.Get(c)
	return li.reg.register(li)
}

// Pin is a convenience for Register-then-Pin in one call.
func (em EpochManager) Pin(c *pgas.Ctx) *Token {
	t := em.Register(c)
	t.Pin(c)
	return t
}

// Protect runs fn with a registered, pinned token and guarantees the
// unpin/unregister pair afterwards (even on panic) — the Go analogue
// of the paper's managed token wrapper, which unregisters automatically
// when the task-private variable leaves scope.
func (em EpochManager) Protect(c *pgas.Ctx, fn func(tok *Token)) {
	tok := em.Register(c)
	defer tok.Unregister(c)
	tok.Pin(c)
	defer tok.Unpin(c)
	fn(tok)
}

// currentEpoch returns this locale's cached view of the epoch.
func (em EpochManager) currentEpoch(c *pgas.Ctx) uint64 {
	return em.priv.Get(c).localeEpoch.Load()
}

// readGlobal reads the authoritative global epoch (communication).
func (em EpochManager) readGlobal(c *pgas.Ctx) uint64 {
	return em.global.epoch.Read(c)
}

// yieldAfterStore is a schedule point in the advance pass: when set, it
// runs after a locale has stored the new epoch and reclaimed its
// generation, before the next locale does. Tests set it to act between
// two locales' cache stores; it is nil otherwise.
var yieldAfterStore func(locale int)

// TryReclaim attempts to advance the global epoch and reclaim one
// limbo generation on every locale. It ports the paper's Listing 4:
//
//  1. Win the locale-local election flag, else return immediately
//     (another task on this locale is already trying).
//  2. Win the global election flag, else clear the local flag and
//     return (a task on another locale is already trying).
//  3. Scan every token on every locale; if any is pinned in an epoch
//     other than the current one, advancement is unsafe — back out.
//  4. Advance the global epoch to (e mod 4)+1; on every locale update
//     the epoch cache, detach the reclaimable limbo generation, sort
//     its objects into per-destination scatter lists, and free each
//     destination's batch with one bulk transfer.
//  5. Release both flags, once every locale's cache holds the new
//     epoch. A blocked advance then yields the processor once
//     (runtime.Gosched), so a pinned straggler that the Go scheduler
//     preempted mid-op can run and unpin.
//
// Listing 4's two `coforall … on` blocks are visits here
// (pgas.Ctx.VisitLocales): the elected task walks the locales itself,
// books the same on-statements and waits the same modelled time, but
// spawns no goroutine. And it keeps four generations, not three (see
// numEpochs).
//
// The early returns make the operation non-blocking: losing an
// election wastes almost no effort, and the whole procedure is driven
// by exactly one task system-wide at any moment.
func (em EpochManager) TryReclaim(c *pgas.Ctx) {
	inst := em.priv.Get(c)
	if inst.isSettingEpoch.Swap(1) == 1 {
		inst.localBackoff.Add(1)
		return
	}
	if em.global.isSettingEpoch.TestAndSet(c) {
		inst.isSettingEpoch.Store(0)
		inst.globalBackoff.Add(1)
		return
	}

	// Is it safe to reclaim across all locales? The advance span covers
	// the token scan through generation reclaim — a won election end to
	// end. Its arg reports the epoch advanced to, or 0 when a pinned
	// token blocked the advance; the per-locale pinned gauge is what the
	// scan observed before it decided (it stops early at the first
	// blocking token, so a blocked scan's gauge is a lower bound).
	tr := c.Sys().Tracer()
	var sp trace.Span
	if tr != nil {
		sp = tr.Begin(c.Here(), trace.KindEpochAdvance, c.TaskID(), c.Here(), c.Here(), 0, 0)
	}
	thisEpoch := em.global.epoch.Read(c)
	safe := true
	c.VisitLocales(func(lc *pgas.Ctx) {
		li := em.priv.Get(lc)
		pinned := int64(0)
		li.reg.forEach(func(t *Token) bool {
			e := t.epoch.Load()
			if e != 0 {
				pinned++
			}
			if e != 0 && e != thisEpoch {
				safe = false
				return false
			}
			return true
		})
		if tr != nil {
			tr.Instant(lc.Here(), trace.KindPinned, lc.TaskID(), lc.Here(), lc.Here(), 0, pinned)
		}
	})

	if safe {
		newEpoch := nextEpoch(thisEpoch)
		em.global.epoch.Write(c, newEpoch)
		c.VisitLocales(func(lc *pgas.Ctx) {
			li := em.priv.Get(lc)
			li.localeEpoch.Store(newEpoch)
			li.reclaimGeneration(lc, reclaimEpochOf(newEpoch))
			if yieldAfterStore != nil {
				yieldAfterStore(lc.Here())
			}
		})
		inst.advances.Add(1)
		sp.EndWith(0, int64(newEpoch))
	} else {
		inst.advanceFail.Add(1)
		sp.End()
	}

	em.global.isSettingEpoch.Clear(c)
	inst.isSettingEpoch.Store(0)
	if !safe {
		// A Go scheduler preemption, not a Chapel task, most likely left
		// the straggler pinned mid-op: run it, once, before returning.
		runtime.Gosched()
	}
}

// reclaimGeneration detaches limbo generation e on this locale,
// scatters its objects by owning locale in one walk of the detached
// chain, and frees each destination's batch, the locale's own and
// every remote one alike, with one Ctx.FreeBulk on its owner — Listing
// 4's `on Locales[i] do delete objs`: one bulk transfer and one pass
// through the owner's allocator lock per non-empty destination, however
// long its list. A bulk free crosses no admission, so a batch homed on
// a crashed or severed locale still reaches its heap. Runs on the
// instance's locale, driven by the single elected reclaimer.
func (li *instance) reclaimGeneration(lc *pgas.Ctx, e uint64) {
	list := li.limbo[e]
	head := list.PopAll()
	if head.IsNil() {
		return
	}
	var sp trace.Span
	if tr := lc.Sys().Tracer(); tr != nil {
		// Arg carries the generation being reclaimed; EndWith fills in
		// the object count once the scatter is done.
		sp = tr.Begin(lc.Here(), trace.KindEpochReclaim, lc.TaskID(), lc.Here(), lc.Here(), 0, int64(e))
	}
	// Scatter objects to their locale.
	list.Release(lc, head, func(obj gas.Addr) {
		li.objsToDelete[obj.Locale()] = append(li.objsToDelete[obj.Locale()], obj)
	})
	// Delete, one bulk free per destination locale, and clear the
	// scatter lists.
	var freed int64
	for dest, batch := range li.objsToDelete {
		freed += int64(lc.FreeBulk(dest, batch))
		li.objsToDelete[dest] = batch[:0]
	}
	li.reclaimed.Add(freed)
	sp.EndWith(0, freed)
}

// ForceRetire is the crash-recovery half of the protocol: it clears
// every pinned token on the given locale, so reclamation can never
// wedge on a pin that will never be released. A fail-stop crash
// strands whatever pins the dead locale's tasks held — the advance
// scan would observe them forever and every election would fail — and
// only an out-of-band retirement can break that deadlock, which is
// exactly what makes it safe: the dead locale runs no tasks, so no
// stranded pin still protects a read in progress.
//
// Deliberately, ForceRetire does NOT drain the dead locale's limbo
// lists: survivors may still hold pins taken before the crash and be
// traversing lists the failover just retired onto that limbo, so an
// immediate drain would break the grace period. Clearing
// the stranded pins is enough — the very next advances (now unblocked)
// cycle the dead locale's generations with full grace, and the final
// Clear drains whatever remains, which is how deferred==reclaimed
// stays provable after a crash.
//
// It runs on the target locale via one on-statement, so when the
// locale is already marked dead the caller must hold a salvage context
// (pgas.Ctx.Salvage) or the hop itself is refused and nothing is
// retired. Call it after shard failover has retired the dead locale's
// lists, as the engine does.
//
// Each retired token records one always-on KindForceRetire span whose
// arg is the epoch the token was stranded in, so a trace's force-retire
// begin-count equals the returned token count exactly.
func (em EpochManager) ForceRetire(c *pgas.Ctx, locale int) int64 {
	var tokens int64
	c.On(locale, func(lc *pgas.Ctx) {
		li := em.priv.Get(lc)
		tr := lc.Sys().Tracer()
		li.reg.forEach(func(t *Token) bool {
			if e := t.epoch.Swap(0); e != 0 {
				tokens++
				if tr != nil {
					sp := tr.Begin(lc.Here(), trace.KindForceRetire, lc.TaskID(), locale, locale, 0, int64(e))
					sp.End()
				}
			}
			return true
		})
	})
	return tokens
}

// Clear reclaims every deferred object across all epochs and locales,
// without requiring epoch advances. It must only be called when no
// other task is interacting with the manager (typically at the end of
// a phase or before teardown), per the paper.
func (em EpochManager) Clear(c *pgas.Ctx) {
	c.VisitLocales(func(lc *pgas.Ctx) {
		li := em.priv.Get(lc)
		for e := uint64(firstEpoch); e <= numEpochs; e++ {
			li.reclaimGeneration(lc, e)
		}
	})
}

// Stats aggregates diagnostic counters across every locale.
type Stats struct {
	Deferred      int64 // DeferDelete calls
	Reclaimed     int64 // objects physically freed
	Advances      int64 // successful epoch advances
	AdvanceFail   int64 // elections won but blocked by a pinned token
	LocalBackoff  int64 // tryReclaims that lost the locale election
	GlobalBackoff int64 // tryReclaims that lost the global election
	Tokens        int64 // tokens ever minted
}

// Stats gathers manager statistics from all locales (communication:
// one on-statement per locale).
func (em EpochManager) Stats(c *pgas.Ctx) Stats {
	var s Stats
	c.VisitLocales(func(lc *pgas.Ctx) {
		li := em.priv.Get(lc)
		s.Deferred += li.deferred.Load()
		s.Reclaimed += li.reclaimed.Load()
		s.Advances += li.advances.Load()
		s.AdvanceFail += li.advanceFail.Load()
		s.LocalBackoff += li.localBackoff.Load()
		s.GlobalBackoff += li.globalBackoff.Load()
		s.Tokens += int64(len(*li.reg.tokens.Load()))
	})
	return s
}

// Generations holds one count per epoch: entry e is epoch e's, and
// entry 0 is unused.
type Generations [numEpochs + 1]int

// LocaleState is one locale's share of a Snapshot.
type LocaleState struct {
	Cache  uint64      // the locale's epoch cache
	Pinned Generations // tokens pinned in each epoch
	Limbo  Generations // objects deferred in each generation
}

// Snapshot is the manager's whole state: the global epoch and every
// locale's cache, pins and limbo lengths. Tests assert all of it after
// each transition, not only the field the transition meant to change.
type Snapshot struct {
	Global  uint64
	Locales []LocaleState
}

// Snapshot reads the whole state (communication: one on-statement per
// remote locale). It walks the limbo lists, so it must only be called
// when no other task is using the manager.
func (em EpochManager) Snapshot(c *pgas.Ctx) Snapshot {
	s := Snapshot{Global: em.global.epoch.Read(c)}
	c.VisitLocales(func(lc *pgas.Ctx) {
		li := em.priv.Get(lc)
		ls := LocaleState{Cache: li.localeEpoch.Load()}
		li.reg.forEach(func(t *Token) bool {
			if e := t.epoch.Load(); e != 0 {
				ls.Pinned[e]++
			}
			return true
		})
		for e := firstEpoch; e <= numEpochs; e++ {
			ls.Limbo[e] = li.limbo[e].Len(lc)
		}
		s.Locales = append(s.Locales, ls)
	})
	return s
}

// Diff describes how s differs from want, locale by locale, or returns
// nil when they are equal.
func (s Snapshot) Diff(want Snapshot) error {
	var diffs []string
	if s.Global != want.Global {
		diffs = append(diffs, fmt.Sprintf("global epoch %d, want %d", s.Global, want.Global))
	}
	if len(s.Locales) != len(want.Locales) {
		diffs = append(diffs, fmt.Sprintf("%d locales, want %d", len(s.Locales), len(want.Locales)))
	}
	for l := range min(len(s.Locales), len(want.Locales)) {
		if got, w := s.Locales[l], want.Locales[l]; got != w {
			diffs = append(diffs, fmt.Sprintf("locale %d: %+v, want %+v", l, got, w))
		}
	}
	if diffs == nil {
		return nil
	}
	return errors.New(strings.Join(diffs, "; "))
}
