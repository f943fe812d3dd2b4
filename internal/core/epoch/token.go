package epoch

import (
	"fmt"
	"sync/atomic"

	"gopgas/internal/gas"
	"gopgas/internal/pgas"
	"gopgas/internal/trace"
)

// Token tracks the epoch one task is engaged in. A task must Register
// to obtain a token before touching an EBR-protected structure, Pin to
// enter the current epoch, Unpin when the operation completes, and
// Unregister when done with the token (in Chapel the managed wrapper
// unregisters automatically when the task-private variable leaves
// scope; the forall helpers in this package do the same through their
// perTaskDone hook).
//
// epoch == 0 means "registered but quiescent"; 1..4 is the pinned
// epoch. The field is a processor atomic, not a network atomic: tokens
// are only ever read remotely from inside an on-statement running on
// their locale (the tryReclaim scan), so the paper "opts out" of NIC
// atomics here — one of its explicitly-stated optimizations.
//
// A Token is padded to 64 bytes so that the allocator's 64-byte size
// class puts each token, and so each task's epoch word, on its own
// cache line. In the 48-byte class one pair in four consecutively
// registered tokens shares a line, and pinning and unpinning such a
// pair from two tasks costs three to four times as much
// (TestTokenLayout).
type Token struct {
	epoch  atomic.Uint64
	inst   *instance // the per-locale instance the token belongs to
	locale int

	nextAlloc *Token        // append-only allocated list linkage
	nextFree  atomic.Uint64 // free-list linkage (index+1 into the registry's tokens)
	slot      int           // index of this token in the registry's tokens
	_         [16]byte      // pads the token to its own 64-byte line
}

// Locale returns the locale the token is registered on.
func (t *Token) Locale() int { return t.locale }

// Pinned reports whether the token is currently inside an epoch.
func (t *Token) Pinned() bool { return t.epoch.Load() != 0 }

// Epoch returns the pinned epoch (1..4), or 0 when quiescent.
func (t *Token) Epoch() uint64 { return t.epoch.Load() }

// Pin enters the current epoch, read from the locale's privatized
// epoch cache — no communication. Pinning while already pinned is a
// no-op, which lets one token cover several nested operations.
func (t *Token) Pin(c *pgas.Ctx) {
	t.checkLocale(c)
	if t.epoch.Load() == 0 {
		pinFrom(&t.epoch, &t.inst.localeEpoch)
	}
}

// pinFrom stores the epoch cache's value in a token's epoch word, then
// reads the cache again until the two agree. A pin stored after the
// cache moved on could be stale by any number of advances, and with
// epochs counted modulo 4 a stale pin can pass for a current one. A pin
// the cache still matched after the store is at most one advance behind
// while it is held: the advance after that one scans after the store.
func pinFrom(tok, cache *atomic.Uint64) {
	for e := cache.Load(); ; {
		tok.Store(e)
		now := cache.Load()
		if now == e {
			return
		}
		e = now
	}
}

// Unpin leaves the current epoch, marking the task quiescent.
func (t *Token) Unpin(c *pgas.Ctx) {
	t.checkLocale(c)
	t.epoch.Store(0)
}

// DeferDelete logically deletes obj: it is pushed onto the limbo list
// of the locale's *current* epoch (Figure 2: "limbo list 2 becomes the
// current that all new reclaimed objects will be added to"), to be
// physically reclaimed at the third epoch advance after, when no task
// can still reach it. The token must be pinned — the pin is what stops
// the epoch from advancing twice while callers still hold references.
//
// Deferring into the current epoch rather than the token's pinned
// epoch matters for safety: a token may legally be pinned one epoch
// behind (it blocks further advancement), and an object unlinked *now*
// may have been picked up by readers pinned in the current epoch. The
// current generation is reclaimed only once those readers provably
// quiesce; the pinned generation could be reclaimed one advance
// earlier — a use-after-free window this library's poisoned heaps
// detect (and whose regression test is TestDeferEpochSafety).
func (t *Token) DeferDelete(c *pgas.Ctx, obj gas.Addr) {
	t.checkLocale(c)
	if t.epoch.Load() == 0 {
		panic("epoch: DeferDelete on an unpinned token")
	}
	if tr := c.Sys().Tracer(); tr != nil {
		tr.Instant(c.Here(), trace.KindDefer, c.TaskID(), c.Here(), obj.Locale(), 0, 0)
	}
	t.inst.limbo[t.inst.localeEpoch.Load()].Push(c, obj)
	t.inst.deferred.Add(1)
}

// TryReclaim attempts to advance the global epoch and reclaim one
// generation of limbo lists, exactly as calling it on the manager.
func (t *Token) TryReclaim(c *pgas.Ctx) {
	t.checkLocale(c)
	t.inst.em.TryReclaim(c)
}

// Unregister relinquishes the token back to the locale's free list.
// The token must not be used afterwards.
func (t *Token) Unregister(c *pgas.Ctx) {
	t.checkLocale(c)
	t.epoch.Store(0)
	t.inst.reg.pushFree(t)
}

func (t *Token) checkLocale(c *pgas.Ctx) {
	if c.Here() != t.locale {
		panic(fmt.Sprintf("epoch: token registered on locale %d used from locale %d", t.locale, c.Here()))
	}
}

// tokenRegistry is the per-instance token storage: an append-only
// allocated list that the tryReclaim scan walks, plus a lock-free LIFO
// free list for Register/Unregister. These are the "two separate
// lists" the paper describes.
//
// The free list is a Treiber stack of slot indices. Because tokens are
// recycled, the pop is exposed to the ABA problem; the head therefore
// carries a 32-bit stamp next to the 32-bit index (the same
// stamped-pointer cure AtomicObject provides, inlined here since the
// index fits comfortably beside its stamp in one word).
type tokenRegistry struct {
	allocHead atomic.Pointer[Token]    // append-only; scan entry point
	freeHead  atomic.Uint64            // stamp<<32 | index+1; low half 0 = empty
	tokens    atomic.Pointer[[]*Token] // slot-indexed storage snapshot
	growMu    chan struct{}            // 1-token semaphore serialising growth
	count     atomic.Int64             // tokens ever minted on this locale
}

// init prepares the registry in place (the struct contains atomics and
// therefore must not be copied).
func (r *tokenRegistry) init() {
	r.growMu = make(chan struct{}, 1)
	r.growMu <- struct{}{}
	empty := []*Token{}
	r.tokens.Store(&empty)
}

const freeIdxMask = (uint64(1) << 32) - 1

// register pops a free token or, when the free list is empty, mints one
// for inst and links it into the registry.
func (r *tokenRegistry) register(inst *instance) *Token {
	// Fast path: ABA-protected pop of the free list.
	for {
		head := r.freeHead.Load()
		idx := head & freeIdxMask
		if idx == 0 {
			break
		}
		t := (*r.tokens.Load())[idx-1]
		next := t.nextFree.Load() & freeIdxMask
		stamped := (head>>32+1)<<32 | next
		if r.freeHead.CompareAndSwap(head, stamped) {
			return t
		}
	}
	// Mint a new token and prepend it to the allocated list.
	t := &Token{inst: inst, locale: inst.locale}
	<-r.growMu
	old := *r.tokens.Load()
	t.slot = len(old)
	grown := make([]*Token, len(old)+1)
	copy(grown, old)
	grown[t.slot] = t
	r.tokens.Store(&grown)
	r.growMu <- struct{}{}
	for {
		head := r.allocHead.Load()
		t.nextAlloc = head
		if r.allocHead.CompareAndSwap(head, t) {
			break
		}
	}
	r.count.Add(1)
	return t
}

// pushFree returns a token to the free list (stamped Treiber push).
func (r *tokenRegistry) pushFree(t *Token) {
	for {
		head := r.freeHead.Load()
		t.nextFree.Store(head & freeIdxMask)
		stamped := (head>>32+1)<<32 | uint64(t.slot+1)
		if r.freeHead.CompareAndSwap(head, stamped) {
			return
		}
	}
}

// forEach walks the allocated list (including currently
// unregistered tokens, whose epoch is 0 and therefore quiescent),
// stopping early if fn returns false. This is the scan tryReclaim
// performs on every locale.
func (r *tokenRegistry) forEach(fn func(t *Token) bool) {
	for t := r.allocHead.Load(); t != nil; t = t.nextAlloc {
		if !fn(t) {
			return
		}
	}
}
