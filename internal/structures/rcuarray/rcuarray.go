// Package rcuarray implements an RCU-like parallel-safe distributed
// resizable array in the style of RCUArray (Jenkins, IPDPSW 2018),
// which the paper cites as prior distributed-structure work by the
// same group and which becomes straightforward to build — and to make
// *non-blocking* — on top of AtomicObject and the EpochManager.
//
// The array is a two-level structure: an immutable table object holds
// the logical length and a list of fixed-size blocks distributed
// round-robin across locales. Readers pin an epoch, atomically load
// the current table, and index through it — no locks, no copies.
// Resizes build a new table (sharing the surviving blocks), install it
// with a single CAS on an AtomicObject, and retire the old table — and
// any dropped blocks — through the EpochManager, so readers still
// traversing the old version stay safe: exactly RCU's
// publish/read/reclaim split, with EBR standing in for RCU's grace
// periods (the correspondence the original RCUArray paper draws).
package rcuarray

import (
	"fmt"

	"gopgas/internal/core/atomics"
	"gopgas/internal/core/epoch"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

// block is one fixed-size chunk of elements, allocated on one locale.
type block[T any] struct {
	data []T
}

// table is one immutable version of the array: its length and blocks.
type table[T any] struct {
	length int
	blocks []gas.Addr
}

// Array is the distributed resizable array. All operations require an
// epoch token (they pin/unpin internally).
type Array[T any] struct {
	tbl       *atomics.AtomicObject
	em        epoch.EpochManager
	home      int
	blockSize int
}

// New creates an empty array. Tables live on the home locale; blocks
// are spread round-robin over all locales. blockSize must be positive.
func New[T any](c *pgas.Ctx, home, blockSize int, em epoch.EpochManager) *Array[T] {
	if blockSize <= 0 {
		panic("rcuarray: blockSize must be positive")
	}
	a := &Array[T]{
		tbl:       atomics.New(c, home, atomics.Options{}),
		em:        em,
		home:      home,
		blockSize: blockSize,
	}
	t0 := c.AllocOn(home, &table[T]{})
	a.tbl.Write(c, t0)
	return a
}

// Manager returns the epoch manager the array reclaims through.
func (a *Array[T]) Manager() epoch.EpochManager { return a.em }

// load returns the current table under the caller's pin.
func (a *Array[T]) load(c *pgas.Ctx) *table[T] {
	return pgas.MustDeref[*table[T]](c, a.tbl.Read(c))
}

// Len returns the logical length.
func (a *Array[T]) Len(c *pgas.Ctx, tok *epoch.Token) int {
	tok.Pin(c)
	defer tok.Unpin(c)
	return a.load(c).length
}

// Read returns element i; ok is false when i is beyond the current
// length (a concurrent shrink may race a stale index — RCU semantics:
// the read linearizes at the table load).
func (a *Array[T]) Read(c *pgas.Ctx, tok *epoch.Token, i int) (v T, ok bool) {
	if i < 0 {
		panic(fmt.Sprintf("rcuarray: negative index %d", i))
	}
	tok.Pin(c)
	defer tok.Unpin(c)
	t := a.load(c)
	if i >= t.length {
		return v, false
	}
	blk := pgas.MustDeref[*block[T]](c, t.blocks[i/a.blockSize])
	return blk.data[i%a.blockSize], true
}

// Write stores element i, reporting false when i is out of range.
// Like RCUArray (and unlike a copy-on-write array), element writes go
// directly into the live block: RCU protects the *structure* (table
// and block lifetimes), while element-level consistency is the
// application's concern.
func (a *Array[T]) Write(c *pgas.Ctx, tok *epoch.Token, i int, v T) bool {
	if i < 0 {
		panic(fmt.Sprintf("rcuarray: negative index %d", i))
	}
	tok.Pin(c)
	defer tok.Unpin(c)
	t := a.load(c)
	if i >= t.length {
		return false
	}
	blk := pgas.MustDeref[*block[T]](c, t.blocks[i/a.blockSize])
	blk.data[i%a.blockSize] = v
	return true
}

// Resize sets the logical length to n, growing or shrinking by whole
// blocks. Surviving blocks are shared with the previous version; the
// old table (and on shrink, the dropped blocks) are retired through
// the EpochManager. Lock-free: concurrent resizes race on one CAS and
// the losers rebuild against the winner's table.
func (a *Array[T]) Resize(c *pgas.Ctx, tok *epoch.Token, n int) {
	if n < 0 {
		panic("rcuarray: negative length")
	}
	tok.Pin(c)
	defer tok.Unpin(c)
	L := c.NumLocales()
	for {
		oldAddr := a.tbl.Read(c)
		old := pgas.MustDeref[*table[T]](c, oldAddr)
		nBlocks := (n + a.blockSize - 1) / a.blockSize

		blocks := make([]gas.Addr, nBlocks)
		var fresh []gas.Addr
		for b := 0; b < nBlocks; b++ {
			if b < len(old.blocks) {
				blocks[b] = old.blocks[b]
				continue
			}
			addr := c.AllocOn(b%L, &block[T]{data: make([]T, a.blockSize)})
			blocks[b] = addr
			fresh = append(fresh, addr)
		}
		newAddr := c.AllocOn(a.home, &table[T]{length: n, blocks: blocks})

		if a.tbl.CompareAndSwap(c, oldAddr, newAddr) {
			tok.DeferDelete(c, oldAddr)
			if nBlocks < len(old.blocks) { // shrink: retire dropped blocks
				for _, dropped := range old.blocks[nBlocks:] {
					tok.DeferDelete(c, dropped)
				}
			}
			return
		}
		// Lost the race: nothing we allocated was published; free it
		// eagerly and retry against the winner's table.
		c.Free(newAddr)
		for _, addr := range fresh {
			c.Free(addr)
		}
	}
}

// Append grows the array by one and writes v at the new last index,
// returning that index. It is a convenience composed of Resize+Write
// and is atomic only with respect to structure safety, not against
// concurrent appends racing for the same index (callers wanting a
// concurrent log should serialize appends or use a queue).
func (a *Array[T]) Append(c *pgas.Ctx, tok *epoch.Token, v T) int {
	tok.Pin(c)
	defer tok.Unpin(c)
	for {
		t := a.load(c)
		i := t.length
		a.Resize(c, tok, i+1)
		if a.Write(c, tok, i, v) {
			return i
		}
	}
}

// BlockOwner reports which locale stores the block containing index i
// in the *current* table — diagnostic, for locality-aware callers.
func (a *Array[T]) BlockOwner(c *pgas.Ctx, tok *epoch.Token, i int) (int, bool) {
	tok.Pin(c)
	defer tok.Unpin(c)
	t := a.load(c)
	if i < 0 || i >= t.length {
		return 0, false
	}
	return t.blocks[i/a.blockSize].Locale(), true
}
