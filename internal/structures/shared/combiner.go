package shared

import (
	"runtime"
	"sync"
	"sync/atomic"

	"gopgas/internal/trace"
)

// Combiner is a flat combiner (Hendler, Incze, Shavit, Tzafrir):
// instead of every delivered operation CAS-ing into a shard's cells
// individually — a retry storm when the shard is hot — each operation
// publishes itself on a lock-free list and one elected task drains the
// whole list in a single sequential pass while the others spin on
// their record's done flag. Contended parallel retries become
// uncontended sequential applies; the election lock is only ever
// TryLock'd, so no task blocks on it.
//
// One Combiner guards one structure shard. It serializes the apply
// functions handed to Do against each other, which is what lets those
// functions touch the shard with plain (uncontended) operations.
type Combiner struct {
	head atomic.Pointer[combineRecord]
	mu   sync.Mutex

	tracer *trace.Recorder // nil unless SetTracer installed one
	locale int
}

// SetTracer installs a span recorder: every drain pass that finds work
// records a KindCombine span on the owning locale, its arg carrying
// the number of operations the pass applied (a DoRun counts as its n).
// The draining task is whichever publisher won the election, so spans
// carry task 0 rather than a misleading specific task id. Call once at
// construction, before the combiner is shared.
func (cb *Combiner) SetTracer(tr *trace.Recorder, locale int) {
	cb.tracer = tr
	cb.locale = locale
}

// combineRecord is one published operation awaiting a drain pass.
type combineRecord struct {
	fn   func()
	next *combineRecord
	n    int32 // operations fn applies; shares a word with done
	done atomic.Bool
}

// Do publishes fn and returns once it has executed — either applied by
// this task (if it wins the combiner election) or by whichever task is
// draining the publication list. fn runs exactly once, serialized
// against every other fn passed to this Combiner.
//
// The publish/done handshake is a synchronization edge: everything
// that happened before Do is visible to the applier, and everything fn
// did is visible to the caller after Do returns. That edge is what
// makes it safe for fn to capture the caller's Ctx even though a
// different task may run it — the two tasks' uses never overlap.
func (cb *Combiner) Do(fn func()) { cb.DoRun(1, fn) }

// DoRun is Do for an fn that applies n operations in one go — a
// delivered run of writes — so the pass that drains it counts n.
func (cb *Combiner) DoRun(n int, fn func()) {
	rec := &combineRecord{fn: fn, n: int32(n)}
	for {
		old := cb.head.Load()
		rec.next = old
		if cb.head.CompareAndSwap(old, rec) {
			break
		}
	}
	for {
		if rec.done.Load() {
			return
		}
		if cb.mu.TryLock() {
			cb.drain()
			cb.mu.Unlock()
			if rec.done.Load() {
				return
			}
			// Our record was published after another combiner swapped
			// the list out but drained before we locked: spin again.
			continue
		}
		runtime.Gosched()
	}
}

// drain detaches the current publication list and applies it oldest
// first. Callers must hold mu. One Swap claims every record published
// so far; records published during the pass wait for the next one.
func (cb *Combiner) drain() {
	top := cb.head.Swap(nil)
	if top == nil {
		return
	}
	var sp trace.Span
	if cb.tracer != nil {
		sp = cb.tracer.Begin(cb.locale, trace.KindCombine, 0, cb.locale, cb.locale, 0, 0)
	}
	// The list is LIFO; reverse it so operations apply in publication
	// order.
	var rev *combineRecord
	for top != nil {
		next := top.next
		top.next = rev
		rev = top
		top = next
	}
	var n int64
	for rec := rev; rec != nil; {
		next := rec.next
		rec.fn()
		n += int64(rec.n)
		rec.done.Store(true)
		rec = next
	}
	sp.EndWith(0, n)
}
