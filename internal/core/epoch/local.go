package epoch

import (
	"sync/atomic"

	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

// LocalEpochManager is the shared-memory-optimized variant: it lacks a
// global epoch and never considers remote objects, so every operation
// — including TryReclaim — is locale-local with zero communication.
// Use it for computations confined to one locale; the distributed
// EpochManager subsumes it functionally at somewhat higher cost.
type LocalEpochManager struct {
	locale int

	epoch          atomic.Uint64
	isSettingEpoch atomic.Uint32
	limbo          [numEpochs + 1]*LimboList
	reg            tokenRegistry

	deferred    atomic.Int64
	reclaimed   atomic.Int64
	backoff     atomic.Int64
	advanceFail atomic.Int64
	advances    atomic.Int64
}

// NewLocalEpochManager creates a manager pinned to the calling task's
// locale.
func NewLocalEpochManager(c *pgas.Ctx) *LocalEpochManager {
	m := &LocalEpochManager{locale: c.Here()}
	m.reg.init()
	m.epoch.Store(firstEpoch)
	m.limbo = newGenerations(c)
	return m
}

// Locale returns the locale the manager serves.
func (m *LocalEpochManager) Locale() int { return m.locale }

// LocalToken tracks a task's epoch for a LocalEpochManager. It wraps
// the shared Token record (so the registry and scan machinery are
// reused) but exposes a communication-free, Ctx-light API.
type LocalToken struct {
	mgr *LocalEpochManager
	tok *Token
}

// Register obtains a token. The manager must be used from its own
// locale.
func (m *LocalEpochManager) Register(c *pgas.Ctx) *LocalToken {
	m.checkLocale(c)
	return m.reg.register(func() *Token {
		t := &Token{locale: m.locale}
		t.localTok = &LocalToken{mgr: m, tok: t}
		return t
	}).localTok
}

func (m *LocalEpochManager) checkLocale(c *pgas.Ctx) {
	if c.Here() != m.locale {
		panic("epoch: LocalEpochManager used from a different locale")
	}
}

// Pin enters the current epoch.
func (t *LocalToken) Pin() {
	if t.tok.epoch.Load() == 0 {
		pinFrom(&t.tok.epoch, &t.mgr.epoch)
	}
}

// Unpin leaves the current epoch.
func (t *LocalToken) Unpin() { t.tok.epoch.Store(0) }

// Pinned reports whether the token is inside an epoch.
func (t *LocalToken) Pinned() bool { return t.tok.epoch.Load() != 0 }

// Epoch returns the pinned epoch, or 0.
func (t *LocalToken) Epoch() uint64 { return t.tok.epoch.Load() }

// DeferDelete pushes obj (which must be local) onto the manager's
// *current* epoch limbo list — not the token's pinned epoch, for the
// same safety reason as Token.DeferDelete.
func (t *LocalToken) DeferDelete(c *pgas.Ctx, obj gas.Addr) {
	if t.tok.epoch.Load() == 0 {
		panic("epoch: DeferDelete on an unpinned token")
	}
	if obj.Locale() != t.mgr.locale {
		panic("epoch: LocalEpochManager given a remote object; use EpochManager")
	}
	t.mgr.limbo[t.mgr.epoch.Load()].Push(c, obj)
	t.mgr.deferred.Add(1)
}

// TryReclaim attempts one epoch advance and reclamation, locally.
func (t *LocalToken) TryReclaim(c *pgas.Ctx) { t.mgr.TryReclaim(c) }

// Unregister relinquishes the token.
func (t *LocalToken) Unregister() {
	t.tok.epoch.Store(0)
	t.mgr.reg.pushFree(t.tok)
}

// TryReclaim is the local analogue of Listing 4 without the
// distributed parts: one election flag, one token scan, an epoch
// advance, and a direct (scatter-free) bulk free of the reclaimable
// generation.
func (m *LocalEpochManager) TryReclaim(c *pgas.Ctx) {
	m.checkLocale(c)
	if m.isSettingEpoch.Swap(1) == 1 {
		m.backoff.Add(1)
		return
	}
	thisEpoch := m.epoch.Load()
	safe := true
	m.reg.forEach(func(t *Token) bool {
		e := t.epoch.Load()
		safe = e == 0 || e == thisEpoch
		return safe
	})
	if safe {
		newEpoch := nextEpoch(thisEpoch)
		m.epoch.Store(newEpoch)
		m.reclaimGeneration(c, reclaimEpochOf(newEpoch))
		m.advances.Add(1)
	} else {
		m.advanceFail.Add(1)
	}
	m.isSettingEpoch.Store(0)
}

func (m *LocalEpochManager) reclaimGeneration(c *pgas.Ctx, e uint64) {
	list := m.limbo[e]
	heap := c.Sys().LocaleHeap(m.locale)
	freed := 0
	list.Release(c, list.PopAll(), func(obj gas.Addr) {
		if heap.Free(obj) {
			freed++
		}
	})
	m.reclaimed.Add(int64(freed))
}

// Clear reclaims everything across all generations; callers must
// guarantee quiescence.
func (m *LocalEpochManager) Clear(c *pgas.Ctx) {
	m.checkLocale(c)
	for e := uint64(firstEpoch); e <= numEpochs; e++ {
		m.reclaimGeneration(c, e)
	}
}

// LocalStats reports the manager's diagnostic counters.
type LocalStats struct {
	Deferred    int64
	Reclaimed   int64
	Advances    int64
	AdvanceFail int64
	Backoff     int64
	Tokens      int64
}

// Stats returns a snapshot of the counters.
func (m *LocalEpochManager) Stats() LocalStats {
	return LocalStats{
		Deferred:    m.deferred.Load(),
		Reclaimed:   m.reclaimed.Load(),
		Advances:    m.advances.Load(),
		AdvanceFail: m.advanceFail.Load(),
		Backoff:     m.backoff.Load(),
		Tokens:      m.reg.count.Load(),
	}
}

// Epoch returns the manager's current epoch.
func (m *LocalEpochManager) Epoch() uint64 { return m.epoch.Load() }
