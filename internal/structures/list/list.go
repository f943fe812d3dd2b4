// Package list implements a Harris-style sorted lock-free linked list
// with logical deletion, built on the paper's infrastructure and
// reclaimed through the EpochManager.
//
// Logical deletion is the paper's running example of why EBR is
// needed: a Remove first *marks* the node (making it unreachable to
// new traversals semantically) and only then physically unlinks it;
// tasks that already hold a reference keep dereferencing it safely
// until the epoch advances prove quiescence.
//
// The mark bit lives in the top bit of the node's next word, next to
// the compressed address — the same spare-bit trick pointer
// compression itself exploits. This caps the usable locale space at
// 2^15 for lists, which the constructor enforces.
package list

import (
	"sync/atomic"

	"gopgas/internal/core/epoch"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

// markBit flags a logically deleted node in its successor word.
const markBit = uint64(1) << 63

func pack(a gas.Addr, marked bool) uint64 {
	v := uint64(a)
	if marked {
		v |= markBit
	}
	return v
}

func unpack(v uint64) (gas.Addr, bool) {
	return gas.Addr(v &^ markBit), v&markBit != 0
}

// node is one list cell; key and val are immutable, next is a
// network-atomic word carrying (successor address | mark bit). The
// word lives inside the node and the node sits bare in a typed heap
// slot (pgas.Slab), so a cell is one host object of 32 bytes for an
// int64 value, and a traversal step touches one cache line.
type node[V any] struct {
	key  uint64
	val  V
	next pgas.Word64
}

// newNode allocates the cell for (k, v) on the list's home with its
// successor word already pointing at succ.
func (l *List[V]) newNode(c *pgas.Ctx, k uint64, v V, succ gas.Addr) (gas.Addr, *node[V]) {
	n := &node[V]{key: k, val: v}
	n.next.Init(c, l.home, pack(succ, false))
	return l.nodes.AllocOn(c, l.home, n), n
}

// List is a distributed sorted lock-free list keyed by uint64. Nodes
// live on the list's home locale.
type List[V any] struct {
	head  pgas.Word64 // sentinel successor word (no sentinel node needed), held in the list like a node's next
	em    epoch.EpochManager
	home  int
	nodes pgas.Slab[node[V]]

	inserts   atomic.Int64
	removes   atomic.Int64
	unlinks   atomic.Int64 // physical unlinks: never above removes, equal at quiescence
	destroyed atomic.Bool
}

// New creates an empty list homed on the given locale.
func New[V any](c *pgas.Ctx, home int, em epoch.EpochManager) *List[V] {
	if c.NumLocales() > 1<<15 {
		panic("list: the mark bit needs locale ids below 2^15")
	}
	l := &List[V]{em: em, home: home, nodes: pgas.NewSlab[node[V]](c.Sys())}
	l.head.Init(c, home, 0)
	return l
}

// Manager returns the epoch manager the list reclaims through.
func (l *List[V]) Manager() epoch.EpochManager { return l.em }

// search walks from the head to the first unmarked node with key >= k
// — with past set, key > k — and returns the window around it: pred,
// the word that points at curr; cn, the node at curr (nil at the tail);
// and next, the unmarked successor word it read for cn, so a caller
// that goes on to CAS that word need not read it again. It physically
// unlinks every marked node it passes (Harris's helping rule). The
// caller must hold a pin.
func (l *List[V]) search(c *pgas.Ctx, tok *epoch.Token, k uint64, past bool) (pred *pgas.Word64, curr gas.Addr, cn *node[V], next uint64) {
retry:
	pred = &l.head
	curr, _ = unpack(pred.Read(c))
	for !curr.IsNil() {
		cn = l.nodes.MustLoad(c, curr)
		next = cn.next.Read(c)
		succ, marked := unpack(next)
		switch {
		case marked:
			if !l.snip(c, tok, pred, curr, succ) {
				goto retry // window changed; restart from the head
			}
			curr = succ
		case cn.key > k || cn.key == k && !past:
			return pred, curr, cn, next
		default:
			pred, curr = &cn.next, succ
		}
	}
	return pred, curr, nil, 0
}

// snip is the physical unlink: it swings pred from the marked node at
// curr to curr's successor. The CAS succeeds for exactly one task —
// pred must still be unmarked and still point at curr — and that task
// books the unlink and owns the node's retirement.
func (l *List[V]) snip(c *pgas.Ctx, tok *epoch.Token, pred *pgas.Word64, curr, succ gas.Addr) bool {
	if !pred.CompareAndSwap(c, pack(curr, false), pack(succ, false)) {
		return false
	}
	l.unlinks.Add(1)
	tok.DeferDelete(c, curr)
	return true
}

// deleteNode is both phases of a deletion for the node cn at curr:
// logical (mark) then physical (unlink + DeferDelete). next is cn's
// successor word as the caller last read it — the word is read again
// only after a lost CAS — and pred is the word the caller holds that
// points at curr. It reports false, having changed nothing, when
// another task marked the node first; that task owns the deletion.
//
// The marker tries the unlink once on the window it already holds
// (Harris's direct unlink). Only if that CAS loses does it traverse
// again, and then past cn.key: a node superseded by an Upsert sits
// behind its unmarked replacement of the same key, where a search that
// stops at cn.key never arrives. Either way the node is unlinked before
// deleteNode returns.
func (l *List[V]) deleteNode(c *pgas.Ctx, tok *epoch.Token, pred *pgas.Word64, curr gas.Addr, cn *node[V], next uint64) bool {
	for {
		if next&markBit != 0 {
			return false
		}
		if cn.next.CompareAndSwap(c, next, next|markBit) {
			break
		}
		next = cn.next.Read(c)
	}
	l.removes.Add(1)
	if succ, _ := unpack(next); !l.snip(c, tok, pred, curr, succ) {
		l.search(c, tok, cn.key, true)
	}
	return true
}

// Insert adds (k, v) if k is absent, reporting whether it inserted.
func (l *List[V]) Insert(c *pgas.Ctx, tok *epoch.Token, k uint64, v V) bool {
	tok.Pin(c)
	defer tok.Unpin(c)
	for {
		pred, curr, cn, _ := l.search(c, tok, k, false)
		if cn != nil && cn.key == k {
			return false
		}
		addr, _ := l.newNode(c, k, v, curr)
		if pred.CompareAndSwap(c, pack(curr, false), pack(addr, false)) {
			l.inserts.Add(1)
			return true
		}
		// Lost the race: free the unpublished node eagerly (it was
		// never reachable) and retry.
		c.Free(addr)
	}
}

// Upsert inserts (k, v), replacing any existing node for k. It returns
// true when an existing value was replaced. The new node is linked in
// front of the old one, so readers observe the new value from the
// instant of the CAS; the old node is then marked and unlinked.
func (l *List[V]) Upsert(c *pgas.Ctx, tok *epoch.Token, k uint64, v V) (replaced bool) {
	tok.Pin(c)
	defer tok.Unpin(c)
	for {
		pred, curr, cn, next := l.search(c, tok, k, false)
		addr, nn := l.newNode(c, k, v, curr)
		if !pred.CompareAndSwap(c, pack(curr, false), pack(addr, false)) {
			c.Free(addr)
			continue
		}
		l.inserts.Add(1)
		if cn == nil || cn.key != k {
			return false
		}
		// The new node is the superseded one's predecessor now.
		l.deleteNode(c, tok, &nn.next, curr, cn, next)
		return true
	}
}

// Remove deletes k, reporting whether it was present.
func (l *List[V]) Remove(c *pgas.Ctx, tok *epoch.Token, k uint64) bool {
	tok.Pin(c)
	defer tok.Unpin(c)
	for {
		pred, curr, cn, next := l.search(c, tok, k, false)
		if cn == nil || cn.key != k {
			return false
		}
		if l.deleteNode(c, tok, pred, curr, cn, next) {
			return true
		}
		// Concurrently removed; re-search.
	}
}

// Get returns the value for k. The read path never helps (no CASes),
// but it must restart when the matching node is marked: a mark can
// mean either removal or replacement by an Upsert that linked the new
// node *in front of* the old one — in the latter case the key was
// never absent, so reporting false would not be linearizable. On
// restart the traversal observes either the replacement or the
// completed removal.
func (l *List[V]) Get(c *pgas.Ctx, tok *epoch.Token, k uint64) (v V, ok bool) {
	tok.Pin(c)
	defer tok.Unpin(c)
retry:
	for {
		curr, _ := unpack(l.head.Read(c))
		for !curr.IsNil() {
			cn := l.nodes.MustLoad(c, curr)
			if cn.key > k {
				return v, false // before reading a successor word it would not use
			}
			succ, marked := unpack(cn.next.Read(c))
			if cn.key == k {
				if marked {
					// Help unlink it (Harris's rule), then re-traverse:
					// the retry observes either the Upsert's
					// replacement node or the completed removal.
					l.search(c, tok, k, false)
					continue retry
				}
				return cn.val, true
			}
			curr = succ
		}
		return v, false
	}
}

// Contains reports whether k is present.
func (l *List[V]) Contains(c *pgas.Ctx, tok *epoch.Token, k uint64) bool {
	_, ok := l.Get(c, tok, k)
	return ok
}

// Len counts unmarked nodes (O(n), diagnostic).
func (l *List[V]) Len(c *pgas.Ctx, tok *epoch.Token) int {
	tok.Pin(c)
	defer tok.Unpin(c)
	n := 0
	curr, _ := unpack(l.head.Read(c))
	for !curr.IsNil() {
		cn := l.nodes.MustLoad(c, curr)
		succ, marked := unpack(cn.next.Read(c))
		if !marked {
			n++
		}
		curr = succ
	}
	return n
}

// Keys returns the unmarked keys in order (O(n), diagnostic).
func (l *List[V]) Keys(c *pgas.Ctx, tok *epoch.Token) []uint64 {
	tok.Pin(c)
	defer tok.Unpin(c)
	var keys []uint64
	curr, _ := unpack(l.head.Read(c))
	for !curr.IsNil() {
		cn := l.nodes.MustLoad(c, curr)
		succ, marked := unpack(cn.next.Read(c))
		if !marked {
			keys = append(keys, cn.key)
		}
		curr = succ
	}
	return keys
}

// Entries returns the unmarked (key, value) pairs in key order — the
// snapshot a migration ships to the new owner. Like Keys it is only a
// consistent snapshot when mutation is quiescent; migrations guarantee
// that by holding the bucket's combiner.
func (l *List[V]) Entries(c *pgas.Ctx, tok *epoch.Token) (keys []uint64, vals []V) {
	tok.Pin(c)
	defer tok.Unpin(c)
	curr, _ := unpack(l.head.Read(c))
	for !curr.IsNil() {
		cn := l.nodes.MustLoad(c, curr)
		succ, marked := unpack(cn.next.Read(c))
		if !marked {
			keys = append(keys, cn.key)
			vals = append(vals, cn.val)
		}
		curr = succ
	}
	return keys, vals
}

// Retire defer-deletes every node still reachable from the head and
// returns how many it deferred, leaving the list structurally intact:
// readers that resolved this list before it was unpublished keep
// traversing live, linked memory, and the nodes are reclaimed only
// after those pinned readers drain. This is the memory half of an
// ownership migration — the contents have been shipped to a new list
// and the old one is being unpublished.
//
// The caller must hold the list's combiner (no concurrent mutation).
// Under that serialization no marked node is still linked: a marker
// does not return while its node is linked (deleteNode unlinks it
// through the window it holds, or traverses past the key until it is
// gone), and whichever task's CAS unlinked it has deferred it. So every
// node seen here is unmarked and this is its only DeferDelete. Marked
// nodes are skipped defensively: their unlinker owns their retirement.
func (l *List[V]) Retire(c *pgas.Ctx, tok *epoch.Token) int {
	tok.Pin(c)
	defer tok.Unpin(c)
	n := 0
	curr, _ := unpack(l.head.Read(c))
	for !curr.IsNil() {
		cn := l.nodes.MustLoad(c, curr)
		succ, marked := unpack(cn.next.Read(c))
		if !marked {
			tok.DeferDelete(c, curr)
			n++
		}
		curr = succ
	}
	return n
}

// Destroy frees every node still reachable from the head (one bulk
// free toward the home locale) and empties the list, so churn
// scenarios can create and drop lists without leaking gas-heap slots.
// The list must be quiescent: no concurrent operation may be in
// flight, and no task may use the list afterwards. Marked nodes are
// skipped — a marked node has been retired through the epoch manager,
// which owns its free (at quiescence none remain linked anyway).
// Nodes already unlinked and deferred are likewise the manager's:
// reclaim them by letting it clear (epoch.EpochManager.Clear) before
// or after Destroy. Destroy panics on a second call.
func (l *List[V]) Destroy(c *pgas.Ctx) {
	if l.destroyed.Swap(true) {
		panic("list: Destroy called twice")
	}
	var addrs []gas.Addr
	curr, _ := unpack(l.head.Read(c))
	for !curr.IsNil() {
		cn := l.nodes.MustLoad(c, curr)
		succ, marked := unpack(cn.next.Read(c))
		if !marked {
			addrs = append(addrs, curr)
		}
		curr = succ
	}
	l.head.Write(c, 0)
	c.FreeBulk(l.home, addrs)
}

// Stats reports operation totals.
type Stats struct {
	Inserts int64
	Removes int64
	Unlinks int64
}

// Stats returns the list's counters.
func (l *List[V]) Stats() Stats {
	return Stats{Inserts: l.inserts.Load(), Removes: l.removes.Load(), Unlinks: l.unlinks.Load()}
}
