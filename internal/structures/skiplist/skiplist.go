// Package skiplist implements a lock-free skip list (in the style of
// Herlihy & Shavit's LockFreeSkipList, itself derived from Fraser's
// practical lock-freedom work — the same dissertation the paper takes
// epoch-based reclamation from), built on the PGAS primitives and
// reclaimed through the EpochManager.
//
// Every next pointer is a network-atomic word carrying (successor
// address | mark bit); a Remove marks the node at every level from the
// top down and the bottom level last — the linearization point — after
// which traversals snip it out and the remover retires it through the
// epoch manager. Contains is wait-free.
package skiplist

import (
	"sync/atomic"

	"gopgas/internal/core/epoch"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

// MaxLevel bounds the tower height; 2^16 expected elements per list is
// plenty for the workloads here.
const MaxLevel = 16

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

// node is one tower. key/val are immutable; next[i] is level i's
// marked successor word, held by value: a tower is the node plus one
// slice of words, and the node sits bare in a typed heap slot
// (pgas.Slab).
type node[V any] struct {
	key      uint64
	val      V
	topLevel int
	next     []pgas.Word64
}

// List is a distributed lock-free skip list keyed by uint64. Nodes
// live on the list's home locale.
type List[V any] struct {
	head  []pgas.Word64 // sentinel successor words per level
	em    epoch.EpochManager
	home  int
	nodes pgas.Slab[node[V]]

	inserts   atomic.Int64
	removes   atomic.Int64
	unlinks   atomic.Int64
	destroyed atomic.Bool
}

// New creates an empty skip list homed on the given locale.
func New[V any](c *pgas.Ctx, home int, em epoch.EpochManager) *List[V] {
	if c.NumLocales() > 1<<15 {
		panic("skiplist: the mark bit needs locale ids below 2^15")
	}
	l := &List[V]{em: em, home: home, nodes: pgas.NewSlab[node[V]](c.Sys())}
	l.head = make([]pgas.Word64, MaxLevel)
	for i := range l.head {
		l.head[i].Init(c, home, 0)
	}
	return l
}

// Manager returns the epoch manager the list reclaims through.
func (l *List[V]) Manager() epoch.EpochManager { return l.em }

// randomLevel draws a geometric tower height from the task's stream.
func randomLevel(c *pgas.Ctx) int {
	lvl := 1
	for lvl < MaxLevel && c.RandUint64()&1 == 1 {
		lvl++
	}
	return lvl
}

// find locates the window around k at every level, snipping marked
// nodes as it goes (retiring each node exactly once, at its
// bottom-level unlink). It returns whether an unmarked node with key k
// sits at the bottom-level window, along with the pred words and succ
// addresses per level. Caller must hold a pin.
func (l *List[V]) find(c *pgas.Ctx, tok *epoch.Token, k uint64) (found bool, preds []*pgas.Word64, succs []gas.Addr, curNode *node[V]) {
	preds = make([]*pgas.Word64, MaxLevel)
	succs = make([]gas.Addr, MaxLevel)
retry:
	for {
		var predNode *node[V] // nil = the head sentinel
		for level := MaxLevel - 1; level >= 0; level-- {
			// The pred *word* at this level belongs to the pred *node*
			// found at the level above (or the head sentinel).
			pred := &l.head[level]
			if predNode != nil {
				pred = &predNode.next[level]
			}
			curr, _ := unpack(pred.Read(c))
			for {
				if curr.IsNil() {
					break
				}
				cn := l.nodes.MustLoad(c, curr)
				succ, marked := unpack(cn.next[level].Read(c))
				if marked {
					// Snip; retire at the bottom-level unlink only.
					if !pred.CompareAndSwap(c, pack(curr, false), pack(succ, false)) {
						continue retry
					}
					l.unlinks.Add(1)
					if level == 0 {
						tok.DeferDelete(c, curr)
					}
					curr = succ
					continue
				}
				if cn.key < k {
					predNode = cn
					pred = &cn.next[level]
					curr = succ
					continue
				}
				break
			}
			preds[level] = pred
			succs[level] = curr
		}
		bottom := succs[0]
		if bottom.IsNil() {
			return false, preds, succs, nil
		}
		bn := l.nodes.MustLoad(c, bottom)
		return bn.key == k, preds, succs, bn
	}
}

// Insert adds (k, v) if absent, reporting whether it inserted.
func (l *List[V]) Insert(c *pgas.Ctx, tok *epoch.Token, k uint64, v V) bool {
	tok.Pin(c)
	defer tok.Unpin(c)
	topLevel := randomLevel(c)
	for {
		found, preds, succs, _ := l.find(c, tok, k)
		if found {
			return false
		}
		n := &node[V]{key: k, val: v, topLevel: topLevel, next: make([]pgas.Word64, topLevel)}
		for i := range n.next {
			n.next[i].Init(c, l.home, pack(succs[i], false))
		}
		addr := l.nodes.AllocOn(c, l.home, n)
		// Linearization: link the bottom level.
		if !preds[0].CompareAndSwap(c, pack(succs[0], false), pack(addr, false)) {
			c.Free(addr) // never published
			continue
		}
		l.inserts.Add(1)
		// Link the upper levels, re-deriving the window as needed. If
		// the node is concurrently removed we abandon the remaining
		// levels: find() snips whatever was linked.
		for level := 1; level < topLevel; level++ {
			for {
				if preds[level].CompareAndSwap(c, pack(succs[level], false), pack(addr, false)) {
					break
				}
				found, p2, s2, bn := l.find(c, tok, k)
				if !found || bn != n {
					return true // removed already; stop linking
				}
				preds, succs = p2, s2
				// Repoint our level-next to the fresh successor; a CAS
				// so a concurrent marker is never overwritten.
				raw := n.next[level].Read(c)
				if _, marked := unpack(raw); marked {
					return true
				}
				if raw != pack(succs[level], false) &&
					!n.next[level].CompareAndSwap(c, raw, pack(succs[level], false)) {
					return true // marked under us
				}
			}
		}
		return true
	}
}

// Remove deletes k, reporting whether it was present. Marks top-down
// with the bottom level last (the linearization point), then calls
// find to physically unlink and retire the node.
func (l *List[V]) Remove(c *pgas.Ctx, tok *epoch.Token, k uint64) bool {
	tok.Pin(c)
	defer tok.Unpin(c)
	for {
		found, _, _, n := l.find(c, tok, k)
		if !found {
			return false
		}
		// Mark upper levels (idempotent, helping allowed).
		for level := n.topLevel - 1; level >= 1; level-- {
			for {
				raw := n.next[level].Read(c)
				succ, marked := unpack(raw)
				if marked {
					break
				}
				if n.next[level].CompareAndSwap(c, raw, pack(succ, true)) {
					break
				}
			}
		}
		// Bottom level: whoever marks it owns the removal.
		for {
			raw := n.next[0].Read(c)
			succ, marked := unpack(raw)
			if marked {
				break // lost to a concurrent remover; retry outer find
			}
			if n.next[0].CompareAndSwap(c, raw, pack(succ, true)) {
				l.removes.Add(1)
				l.find(c, tok, k) // physical unlink + retire
				return true
			}
		}
	}
}

// Get returns the value for k; wait-free traversal (no helping).
func (l *List[V]) Get(c *pgas.Ctx, tok *epoch.Token, k uint64) (v V, ok bool) {
	tok.Pin(c)
	defer tok.Unpin(c)
	var predNode *node[V]
	var candidate *node[V]
	for level := MaxLevel - 1; level >= 0; level-- {
		pred := &l.head[level]
		if predNode != nil {
			pred = &predNode.next[level]
		}
		curr, _ := unpack(pred.Read(c))
		for !curr.IsNil() {
			cn := l.nodes.MustLoad(c, curr)
			succ, marked := unpack(cn.next[level].Read(c))
			if cn.key < k {
				predNode = cn
				curr = succ
				continue
			}
			if cn.key == k && !marked {
				candidate = cn
			}
			break
		}
	}
	if candidate != nil {
		return candidate.val, true
	}
	return v, false
}

// Contains reports whether k is present.
func (l *List[V]) Contains(c *pgas.Ctx, tok *epoch.Token, k uint64) bool {
	_, ok := l.Get(c, tok, k)
	return ok
}

// Len counts unmarked bottom-level nodes (O(n), diagnostic).
func (l *List[V]) Len(c *pgas.Ctx, tok *epoch.Token) int {
	tok.Pin(c)
	defer tok.Unpin(c)
	n := 0
	curr, _ := unpack(l.head[0].Read(c))
	for !curr.IsNil() {
		cn := l.nodes.MustLoad(c, curr)
		succ, marked := unpack(cn.next[0].Read(c))
		if !marked {
			n++
		}
		curr = succ
	}
	return n
}

// Keys returns the unmarked keys in ascending order (O(n), diagnostic).
func (l *List[V]) Keys(c *pgas.Ctx, tok *epoch.Token) []uint64 {
	tok.Pin(c)
	defer tok.Unpin(c)
	var keys []uint64
	curr, _ := unpack(l.head[0].Read(c))
	for !curr.IsNil() {
		cn := l.nodes.MustLoad(c, curr)
		succ, marked := unpack(cn.next[0].Read(c))
		if !marked {
			keys = append(keys, cn.key)
		}
		curr = succ
	}
	return keys
}

// Destroy frees every tower still linked at the bottom level (one
// bulk free toward the home locale) and empties the list, so churn
// scenarios can create and drop skip lists without leaking gas-heap
// slots. The list must be quiescent and no task may use it afterwards.
// Marked towers are skipped: a marked tower has been retired through
// the epoch manager, which owns its free (at quiescence none remain
// linked anyway) — let the manager clear to reclaim the deferred set.
// Destroy panics on a second call.
func (l *List[V]) Destroy(c *pgas.Ctx) {
	if l.destroyed.Swap(true) {
		panic("skiplist: Destroy called twice")
	}
	var addrs []gas.Addr
	curr, _ := unpack(l.head[0].Read(c))
	for !curr.IsNil() {
		cn := l.nodes.MustLoad(c, curr)
		succ, marked := unpack(cn.next[0].Read(c))
		if !marked {
			addrs = append(addrs, curr)
		}
		curr = succ
	}
	for i := range l.head {
		l.head[i].Write(c, 0)
	}
	c.FreeBulk(l.home, addrs)
}

// Stats reports operation totals.
type Stats struct {
	Inserts int64
	Removes int64
	Unlinks int64 // per-level physical unlinks (≥ Removes)
}

// Stats returns the list's counters.
func (l *List[V]) Stats() Stats {
	return Stats{Inserts: l.inserts.Load(), Removes: l.removes.Load(), Unlinks: l.unlinks.Load()}
}
