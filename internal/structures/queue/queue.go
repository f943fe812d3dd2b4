// Package queue implements a Michael–Scott lock-free FIFO queue on top
// of the paper's building blocks: AtomicObject head/tail references,
// network-atomic next pointers, and EpochManager reclamation of
// dequeued nodes.
//
// Unlike the Treiber stack, the MS queue's CASes are safe without ABA
// stamps *provided* nodes are never recycled while a task can still
// hold a reference — which is precisely the guarantee epoch-based
// reclamation supplies. The queue therefore deliberately uses the
// plain (compressed, RDMA-able) AtomicObject operations, demonstrating
// the paper's point that the EpochManager is the general cure for ABA
// while DCAS stamps are the building-block-level cure.
package queue

import (
	"sync/atomic"

	"gopgas/internal/core/atomics"
	"gopgas/internal/core/epoch"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

// node is one queue cell. next is a network-atomic word holding a
// gas.Addr: it is CASed by enqueuers on arbitrary locales, so a
// processor atomic would not model a real PGAS system; val is
// immutable after construction. The word lives inside the node and the
// node sits bare in a typed heap slot (pgas.Slab), so a cell is one
// host object of 24 bytes for an int64 value.
type node[T any] struct {
	val  T
	next pgas.Word64
}

// newNode allocates a cell for v on the queue's home, its successor
// word nil.
func (q *Queue[T]) newNode(c *pgas.Ctx, v T) gas.Addr {
	n := &node[T]{val: v}
	n.next.Init(c, q.home, 0)
	return q.nodes.AllocOn(c, q.home, n)
}

// Queue is a distributed lock-free FIFO. Nodes live on the queue's
// home locale (values may of course reference data anywhere).
//
// Layout: every op reads the fields up to nodes and adds to one of the
// tallies below them. A queue.Sharded builds one Queue per locale back
// to back, so 128 bytes (an adjacent-line pair) separate the tallies
// from the header's read fields, and the trailing pad does the same
// for the next locale's segment (TestQueueLayout).
type Queue[T any] struct {
	head  *atomics.AtomicObject
	tail  *atomics.AtomicObject
	em    epoch.EpochManager
	home  int
	nodes pgas.Slab[node[T]]

	_    [128]byte
	enqs atomic.Int64
	deqs atomic.Int64
	_    [128]byte
}

// New creates an empty queue homed on the given locale, using em for
// node reclamation. The queue starts with the MS dummy node.
func New[T any](c *pgas.Ctx, home int, em epoch.EpochManager) *Queue[T] {
	q := &Queue[T]{
		head:  atomics.New(c, home, atomics.Options{}),
		tail:  atomics.New(c, home, atomics.Options{}),
		em:    em,
		home:  home,
		nodes: pgas.NewSlab[node[T]](c.Sys()),
	}
	var zero T
	dummy := q.newNode(c, zero)
	q.head.Write(c, dummy)
	q.tail.Write(c, dummy)
	return q
}

// Manager returns the epoch manager the queue reclaims through.
func (q *Queue[T]) Manager() epoch.EpochManager { return q.em }

// destroy frees every node still linked from the head — the MS dummy
// plus any undequeued values — in one bulk free toward the home
// locale. The queue must be quiescent and is unusable afterwards.
// Nodes already dequeued are not in this chain; they were retired
// through the epoch manager, which owns their frees. Sharded.Destroy
// runs this per segment so churn scenarios leak nothing.
func (q *Queue[T]) destroy(c *pgas.Ctx) {
	var addrs []gas.Addr
	addr := q.head.Read(c)
	for !addr.IsNil() {
		n := q.nodes.MustLoad(c, addr)
		addrs = append(addrs, addr)
		addr = gas.Addr(n.next.Read(c))
	}
	q.head.Write(c, 0)
	q.tail.Write(c, 0)
	c.FreeBulk(q.home, addrs)
}

// Enqueue appends v. Standard Michael–Scott: link the node after the
// tail, helping a lagging tail forward when necessary.
func (q *Queue[T]) Enqueue(c *pgas.Ctx, tok *epoch.Token, v T) {
	addr := q.newNode(c, v)
	tok.Pin(c)
	defer tok.Unpin(c)
	for {
		tail := q.tail.Read(c)
		tn := q.nodes.MustLoad(c, tail)
		next := gas.Addr(tn.next.Read(c))
		if tail != q.tail.Read(c) {
			continue // tail moved under us; retry
		}
		if next.IsNil() {
			if tn.next.CompareAndSwap(c, 0, uint64(addr)) {
				q.tail.CompareAndSwap(c, tail, addr) // swing tail (may fail: someone helped)
				q.enqs.Add(1)
				return
			}
		} else {
			q.tail.CompareAndSwap(c, tail, next) // help the lagging tail
		}
	}
}

// EnqueueBulk appends every value in vals, in order, as one batch.
// The nodes ship to the queue's home locale in a single bulk transfer
// (AllocBulkOn) and are pre-linked into a chain there, so publishing
// the whole batch costs one link CAS plus one tail swing — O(1)
// remote operations for len(vals) enqueues, against O(n) for the
// per-op path. The batch is contiguous in the queue: no other
// enqueuer's value can interleave inside it.
func (q *Queue[T]) EnqueueBulk(c *pgas.Ctx, tok *epoch.Token, vals []T) {
	if len(vals) == 0 {
		return
	}
	nodes := make([]*node[T], len(vals))
	for i, v := range vals {
		nodes[i] = &node[T]{val: v}
	}
	addrs := q.nodes.AllocBulkOn(c, q.home, nodes)
	// Pre-link the chain: the nodes are unpublished, so the next words
	// can be initialised without any communication.
	for i := range nodes {
		next := gas.AddrNil
		if i+1 < len(nodes) {
			next = addrs[i+1]
		}
		nodes[i].next.Init(c, q.home, uint64(next))
	}
	first, last := addrs[0], addrs[len(addrs)-1]
	tok.Pin(c)
	defer tok.Unpin(c)
	for {
		tail := q.tail.Read(c)
		tn := q.nodes.MustLoad(c, tail)
		next := gas.Addr(tn.next.Read(c))
		if tail != q.tail.Read(c) {
			continue
		}
		if next.IsNil() {
			if tn.next.CompareAndSwap(c, 0, uint64(first)) {
				q.tail.CompareAndSwap(c, tail, last)
				q.enqs.Add(int64(len(vals)))
				return
			}
		} else {
			q.tail.CompareAndSwap(c, tail, next)
		}
	}
}

// Dequeue removes and returns the oldest value; ok is false when the
// queue is empty. The retired dummy node is defer-deleted through the
// epoch manager.
func (q *Queue[T]) Dequeue(c *pgas.Ctx, tok *epoch.Token) (v T, ok bool) {
	tok.Pin(c)
	defer tok.Unpin(c)
	for {
		head := q.head.Read(c)
		tail := q.tail.Read(c)
		hn := q.nodes.MustLoad(c, head)
		next := gas.Addr(hn.next.Read(c))
		if head != q.head.Read(c) {
			continue
		}
		if head == tail {
			if next.IsNil() {
				return v, false // empty
			}
			q.tail.CompareAndSwap(c, tail, next) // help
			continue
		}
		val := q.nodes.MustLoad(c, next).val
		if q.head.CompareAndSwap(c, head, next) {
			tok.DeferDelete(c, head) // the old dummy
			q.deqs.Add(1)
			return val, true
		}
	}
}

// isEmpty reports whether the queue appeared empty.
func (q *Queue[T]) isEmpty(c *pgas.Ctx, tok *epoch.Token) bool {
	tok.Pin(c)
	defer tok.Unpin(c)
	head := q.head.Read(c)
	hn := q.nodes.MustLoad(c, head)
	return gas.Addr(hn.next.Read(c)).IsNil()
}

// Len counts elements by traversal (O(n), diagnostic only).
func (q *Queue[T]) Len(c *pgas.Ctx, tok *epoch.Token) int {
	tok.Pin(c)
	defer tok.Unpin(c)
	n := 0
	cur := q.head.Read(c)
	for {
		nd := q.nodes.MustLoad(c, cur)
		next := gas.Addr(nd.next.Read(c))
		if next.IsNil() {
			return n
		}
		n++
		cur = next
	}
}

// Stats reports operation totals.
type Stats struct {
	Enqueues int64
	Dequeues int64
}

// Stats returns the queue's counters.
func (q *Queue[T]) Stats() Stats {
	return Stats{Enqueues: q.enqs.Load(), Dequeues: q.deqs.Load()}
}
