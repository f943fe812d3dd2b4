package gas

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Tag names the node type whose objects a chunk holds. Tag 0 is the
// untyped chunk (boxed `any` values); TypeOf assigns every other tag,
// one per Go type for the whole process, so a tag never names two
// types and a typed slot is never read as another type.
type Tag uint32

// Type is the typed face of the heaps for node type T: its chunks hold
// bare *T slots, with no `any` box in front of each node, so a node
// costs the heap one host allocation (the node) and a Load is one
// directory load, one tag compare and one slot load. The zero Type is
// invalid; obtain one with TypeOf.
type Type[T any] struct{ tag Tag }

var types struct {
	mu   sync.Mutex
	tags map[any]Tag // keyed by (*T)(nil): its dynamic type is T's pointer type
}

// TypeOf returns T's typed face, registering T on first use. It takes
// a lock; callers obtain it once, when they build a structure, not per
// operation.
func TypeOf[T any]() Type[T] {
	key := any((*T)(nil))
	types.mu.Lock()
	defer types.mu.Unlock()
	tag, ok := types.tags[key]
	if !ok {
		if types.tags == nil {
			types.tags = make(map[any]Tag)
		}
		tag = Tag(len(types.tags) + 1)
		types.tags[key] = tag
	}
	return Type[T]{tag: tag}
}

// Alloc publishes obj in a slot of one of h's chunks of T and returns
// its global address. obj must be a node no other slot holds: it is
// published once and never rewritten by the heap. Freed slots of T are
// reused LIFO, exactly as Heap.Alloc reuses untyped ones.
func (t Type[T]) Alloc(h *Heap, obj *T) Addr {
	return h.publish(t.tag, unsafe.Pointer(obj))
}

// Load returns the node at addr. ok is false — and the use-after-free
// counter is incremented — if the slot has been freed and not yet
// reallocated, or lies beyond anything h handed out. Load panics if
// addr belongs to another locale, or to a chunk of another tag: that
// is a program bug, not a reclamation hazard.
func (t Type[T]) Load(h *Heap, addr Addr) (*T, bool) {
	h.checkOwner(addr)
	s, tag := h.slot(addr.Index())
	if s == nil {
		h.uafLoads.Add(1)
		return nil, false
	}
	if tag != t.tag {
		badTag(addr, tag, t.tag)
	}
	obj := (*T)(atomic.LoadPointer(s))
	if obj == nil {
		h.uafLoads.Add(1)
		return nil, false
	}
	return obj, true
}
