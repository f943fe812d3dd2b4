// Package list implements a Harris-style sorted lock-free linked list
// with logical deletion, built on the paper's infrastructure and
// reclaimed through the EpochManager.
//
// Logical deletion is the paper's running example of why EBR is
// needed: a Remove first *marks* the node (making it unreachable to
// new traversals semantically) and only then physically unlinks it;
// tasks that already hold a reference keep dereferencing it safely
// until two epoch advances prove quiescence.
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
// word and the heap box live inside the node, so a cell is one host
// object and a traversal step touches one cache line.
type node[V any] struct {
	gas.Boxed
	key  uint64
	val  V
	next pgas.Word64
}

// newNode allocates the cell for (k, v) on the list's home with its
// successor word already pointing at succ.
func (l *List[V]) newNode(c *pgas.Ctx, k uint64, v V, succ gas.Addr) gas.Addr {
	n := &node[V]{key: k, val: v}
	n.next.Init(c, l.home, pack(succ, false))
	return c.AllocOn(l.home, n)
}

// List is a distributed sorted lock-free list keyed by uint64. Nodes
// live on the list's home locale.
type List[V any] struct {
	head *pgas.Word64 // sentinel successor word (no sentinel node needed)
	em   epoch.EpochManager
	home int

	inserts   atomic.Int64
	removes   atomic.Int64
	unlinks   atomic.Int64 // physical unlinks (may exceed removes via helping)
	destroyed atomic.Bool
}

// New creates an empty list homed on the given locale.
func New[V any](c *pgas.Ctx, home int, em epoch.EpochManager) *List[V] {
	if c.NumLocales() > 1<<15 {
		panic("list: the mark bit needs locale ids below 2^15")
	}
	return &List[V]{
		head: pgas.NewWord64(c, home, 0),
		em:   em,
		home: home,
	}
}

// Manager returns the epoch manager the list reclaims through.
func (l *List[V]) Manager() epoch.EpochManager { return l.em }

// search locates the window (predWord, curr) such that curr is the
// first unmarked node with key >= k; it physically unlinks any marked
// nodes it passes, defer-deleting them (Harris's helping rule). The
// caller must hold a pin.
func (l *List[V]) search(c *pgas.Ctx, tok *epoch.Token, k uint64) (pred *pgas.Word64, curr gas.Addr, cn *node[V]) {
retry:
	pred = l.head
	curr, _ = unpack(pred.Read(c))
	for {
		if curr.IsNil() {
			return pred, curr, nil
		}
		cn = pgas.MustDeref[*node[V]](c, curr)
		succ, marked := unpack(cn.next.Read(c))
		if marked {
			// Help: physically unlink the marked node.
			if !pred.CompareAndSwap(c, pack(curr, false), pack(succ, false)) {
				goto retry // window changed; restart from the head
			}
			l.unlinks.Add(1)
			tok.DeferDelete(c, curr)
			curr = succ
			continue
		}
		if cn.key >= k {
			return pred, curr, cn
		}
		pred = &cn.next
		curr = succ
	}
}

// Insert adds (k, v) if k is absent, reporting whether it inserted.
func (l *List[V]) Insert(c *pgas.Ctx, tok *epoch.Token, k uint64, v V) bool {
	tok.Pin(c)
	defer tok.Unpin(c)
	for {
		pred, curr, cn := l.search(c, tok, k)
		if cn != nil && cn.key == k {
			return false
		}
		addr := l.newNode(c, k, v, curr)
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
		pred, curr, cn := l.search(c, tok, k)
		addr := l.newNode(c, k, v, curr)
		if !pred.CompareAndSwap(c, pack(curr, false), pack(addr, false)) {
			c.Free(addr)
			continue
		}
		l.inserts.Add(1)
		if cn != nil && cn.key == k {
			// Mark the superseded node; search() will unlink it (or we
			// unlink it here if the window is still quiet).
			l.markNode(c, tok, curr, cn)
			return true
		}
		return false
	}
}

// markNode sets the mark bit on a node and attempts the physical
// unlink from its immediate predecessor word.
func (l *List[V]) markNode(c *pgas.Ctx, tok *epoch.Token, addr gas.Addr, n *node[V]) {
	for {
		succRaw := n.next.Read(c)
		succ, marked := unpack(succRaw)
		if marked {
			return // someone else removed it
		}
		if n.next.CompareAndSwap(c, succRaw, pack(succ, true)) {
			l.removes.Add(1)
			// Best-effort immediate unlink; search() helps otherwise.
			l.search(c, tok, n.key)
			return
		}
	}
}

// Remove deletes k, reporting whether it was present. Deletion is
// two-phase: logical (mark) then physical (unlink + DeferDelete).
func (l *List[V]) Remove(c *pgas.Ctx, tok *epoch.Token, k uint64) bool {
	tok.Pin(c)
	defer tok.Unpin(c)
	for {
		_, _, cn := l.search(c, tok, k)
		if cn == nil || cn.key != k {
			return false
		}
		succRaw := cn.next.Read(c)
		succ, marked := unpack(succRaw)
		if marked {
			continue // concurrently removed; re-search
		}
		if cn.next.CompareAndSwap(c, succRaw, pack(succ, true)) {
			l.removes.Add(1)
			l.search(c, tok, k) // physical unlink via helping
			return true
		}
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
			cn := pgas.MustDeref[*node[V]](c, curr)
			succ, marked := unpack(cn.next.Read(c))
			if cn.key == k {
				if marked {
					// Help unlink it (Harris's rule), then re-traverse:
					// the retry observes either the Upsert's
					// replacement node or the completed removal.
					l.search(c, tok, k)
					continue retry
				}
				return cn.val, true
			}
			if cn.key > k {
				return v, false
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
		cn := pgas.MustDeref[*node[V]](c, curr)
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
		cn := pgas.MustDeref[*node[V]](c, curr)
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
		cn := pgas.MustDeref[*node[V]](c, curr)
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
// Under that serialization no marked node is still linked — a writer's
// mark is followed by its unlink (or a reader's helping unlink, which
// defers the node) before the writer's turn ends — so every node seen
// here is unmarked and this is its only DeferDelete. Marked nodes are
// skipped defensively: their unlinker owns their retirement.
func (l *List[V]) Retire(c *pgas.Ctx, tok *epoch.Token) int {
	tok.Pin(c)
	defer tok.Unpin(c)
	n := 0
	curr, _ := unpack(l.head.Read(c))
	for !curr.IsNil() {
		cn := pgas.MustDeref[*node[V]](c, curr)
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
		cn := pgas.MustDeref[*node[V]](c, curr)
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
