// Package stack implements the paper's Listing 1: a Treiber lock-free
// stack over AtomicObject with ABA protection, generalised to
// distributed memory. The head is an ABA-stamped AtomicObject homed on
// one locale; nodes are allocated in the global address space on the
// locale of the pushing task, and popped nodes are handed to an
// EpochManager for concurrent-safe reclamation.
//
// The stack therefore exercises every piece of the paper's
// infrastructure at once: pointer compression (the head CAS is a NIC
// atomic when possible), the stamped DCAS variants (pop's window), and
// distributed EBR (node reclamation).
package stack

import (
	"sync/atomic"

	"gopgas/internal/core/atomics"
	"gopgas/internal/core/epoch"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

// node is one stack cell. The next field is written only before the
// node is published by the CAS and read only by tasks that obtained
// the node from the head afterwards, so a plain field suffices; val is
// immutable after construction. The node sits bare in a typed heap
// slot (pgas.Slab), so a cell is one host object.
type node[T any] struct {
	val  T
	next gas.Addr
}

// Stack is a distributed lock-free LIFO. All operations require a
// registered epoch token; they pin and unpin it internally.
type Stack[T any] struct {
	head  *atomics.AtomicObject
	em    epoch.EpochManager
	home  int
	nodes pgas.Slab[node[T]]

	pushes atomic.Int64
	pops   atomic.Int64
	empty  atomic.Int64
}

// New creates a stack whose head cell is homed on the given locale and
// whose reclamation is handled by em.
func New[T any](c *pgas.Ctx, home int, em epoch.EpochManager) *Stack[T] {
	return &Stack[T]{
		head:  atomics.New(c, home, atomics.Options{ABA: true}),
		em:    em,
		home:  home,
		nodes: pgas.NewSlab[node[T]](c.Sys()),
	}
}

// Manager returns the epoch manager the stack reclaims through.
func (s *Stack[T]) Manager() epoch.EpochManager { return s.em }

// destroy frees every node still linked from the head in one bulk
// free per owning locale (push allocates on the pusher's locale, so
// the chain may span the system). The stack must be quiescent and is
// unusable afterwards. Popped nodes are not in this chain; they were
// retired through the epoch manager, which owns their frees.
// Sharded.Destroy runs this per segment so churn scenarios leak
// nothing.
func (s *Stack[T]) destroy(c *pgas.Ctx) {
	byLocale := make(map[int][]gas.Addr)
	addr := s.head.ReadABA(c).Object()
	for !addr.IsNil() {
		n := s.nodes.MustLoad(c, addr)
		byLocale[addr.Locale()] = append(byLocale[addr.Locale()], addr)
		addr = n.next
	}
	s.head.Write(c, 0)
	for locale, addrs := range byLocale {
		c.FreeBulk(locale, addrs)
	}
}

// Push adds v. The node is allocated on the calling task's locale —
// pushes never communicate beyond the head CAS itself.
func (s *Stack[T]) Push(c *pgas.Ctx, tok *epoch.Token, v T) {
	n := &node[T]{val: v}
	addr := s.nodes.AllocOn(c, c.Here(), n)
	tok.Pin(c)
	defer tok.Unpin(c)
	for {
		oldHead := s.head.ReadABA(c)
		n.next = oldHead.Object()
		if s.head.CompareAndSwapABA(c, oldHead, addr) {
			s.pushes.Add(1)
			return
		}
	}
}

// PushBulk pushes every value in vals as one batch: vals[len-1] ends
// up on top, i.e. the result is identical to pushing vals in order.
// The nodes are allocated locally and pre-linked into a chain, so the
// whole batch publishes with a single head CAS — one remote operation
// for len(vals) pushes. The batch is contiguous on the stack.
func (s *Stack[T]) PushBulk(c *pgas.Ctx, tok *epoch.Token, vals []T) {
	if len(vals) == 0 {
		return
	}
	// Build the chain bottom-up: nodes[i].next = nodes[i-1], so the
	// last value is the new top.
	nodes := make([]*node[T], len(vals))
	addrs := make([]gas.Addr, len(vals))
	for i, v := range vals {
		nodes[i] = &node[T]{val: v}
		addrs[i] = s.nodes.AllocOn(c, c.Here(), nodes[i])
		if i > 0 {
			nodes[i].next = addrs[i-1]
		}
	}
	top := addrs[len(addrs)-1]
	tok.Pin(c)
	defer tok.Unpin(c)
	for {
		oldHead := s.head.ReadABA(c)
		nodes[0].next = oldHead.Object()
		if s.head.CompareAndSwapABA(c, oldHead, top) {
			s.pushes.Add(int64(len(vals)))
			return
		}
	}
}

// Pop removes and returns the most recently pushed value; ok is false
// when the stack is empty. The unlinked node is defer-deleted through
// the epoch manager, never freed eagerly — the dereference another
// task may concurrently perform on it stays safe under its own pin.
func (s *Stack[T]) Pop(c *pgas.Ctx, tok *epoch.Token) (v T, ok bool) {
	tok.Pin(c)
	defer tok.Unpin(c)
	for {
		oldHead := s.head.ReadABA(c)
		if oldHead.IsNil() {
			s.empty.Add(1)
			return v, false
		}
		n := s.nodes.MustLoad(c, oldHead.Object())
		if s.head.CompareAndSwapABA(c, oldHead, n.next) {
			tok.DeferDelete(c, oldHead.Object())
			s.pops.Add(1)
			return n.val, true
		}
	}
}

// peek returns the top value without removing it.
func (s *Stack[T]) peek(c *pgas.Ctx, tok *epoch.Token) (v T, ok bool) {
	tok.Pin(c)
	defer tok.Unpin(c)
	top := s.head.ReadABA(c)
	if top.IsNil() {
		return v, false
	}
	return s.nodes.MustLoad(c, top.Object()).val, true
}

// isEmpty reports whether the stack appeared empty.
func (s *Stack[T]) isEmpty(c *pgas.Ctx) bool {
	return s.head.ReadABA(c).IsNil()
}

// Len counts the elements by traversal (O(n), not linearizable; for
// tests and diagnostics). Requires a token for safe traversal.
func (s *Stack[T]) Len(c *pgas.Ctx, tok *epoch.Token) int {
	tok.Pin(c)
	defer tok.Unpin(c)
	n := 0
	for cur := s.head.ReadABA(c).Object(); !cur.IsNil(); {
		nd := s.nodes.MustLoad(c, cur)
		cur = nd.next
		n++
	}
	return n
}

// Stats reports operation totals.
type Stats struct {
	Pushes int64
	Pops   int64
	Empty  int64 // pops that observed an empty stack
}

// Stats returns the stack's counters.
func (s *Stack[T]) Stats() Stats {
	return Stats{Pushes: s.pushes.Load(), Pops: s.pops.Load(), Empty: s.empty.Load()}
}
