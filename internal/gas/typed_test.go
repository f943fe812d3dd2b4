package gas

import (
	"slices"
	"sync"
	"testing"
)

// A FreeBulk batch that mixes boxed slots with two types' nodes
// returns every index to its own tag's free list: each type's next
// allocations reuse exactly its own freed addresses, newest first.
func TestHeapFreeBulkMixedTypes(t *testing.T) {
	h := NewHeap(0)
	var plain, typed, other []Addr
	for i := 0; i < 4; i++ {
		plain = append(plain, h.Alloc(i))
		typed = append(typed, objType.Alloc(h, &typedObj{v: i}))
		other = append(other, otherType.Alloc(h, &otherObj{v: i}))
	}
	var batch []Addr
	for i := range plain {
		batch = append(batch, other[i], plain[i], typed[i])
	}
	batch = append(batch, AddrNil, typed[0]) // a nil and a double free
	if n := h.FreeBulk(batch); n != 12 {
		t.Fatalf("FreeBulk freed %d, want 12", n)
	}
	if st := h.Stats(); st.Live != 0 || st.Frees != 12 || st.UAFFrees != 1 {
		t.Fatalf("stats after the mixed batch = %+v", st)
	}
	for i := len(plain) - 1; i >= 0; i-- {
		if a := h.Alloc(-i); a != plain[i] {
			t.Fatalf("boxed reuse %d: got %v, want %v", i, a, plain[i])
		}
		if a := objType.Alloc(h, &typedObj{v: -i}); a != typed[i] {
			t.Fatalf("typed reuse %d: got %v, want %v", i, a, typed[i])
		}
		if a := otherType.Alloc(h, &otherObj{v: -i}); a != other[i] {
			t.Fatalf("other-type reuse %d: got %v, want %v", i, a, other[i])
		}
	}
	for i := range plain {
		if n, ok := objType.Load(h, typed[i]); !ok || n.v != -i {
			t.Fatalf("typed slot %v holds %+v ok=%v", typed[i], n, ok)
		}
	}
}

// One FreeBulk batch holding a nil, a duplicate, an address freed
// before it and slots of two tags leaves the whole heap state right:
// each live slot is freed once, each dead one is counted as a double
// free, and each tag's next allocations reuse its own slots newest
// first. A warm batch, whose free lists already have room, allocates
// nothing.
func TestFreeBulkWholeState(t *testing.T) {
	h := NewHeap(0)
	var plain, typed []Addr
	for i := 0; i < 3; i++ {
		plain = append(plain, h.Alloc(i))
		typed = append(typed, objType.Alloc(h, &typedObj{v: i}))
	}
	h.Free(plain[2])
	batch := []Addr{typed[0], AddrNil, plain[0], typed[1], plain[2], plain[1], typed[0], typed[2]}
	if n := h.FreeBulk(batch); n != 5 {
		t.Fatalf("FreeBulk freed %d, want 5", n)
	}
	if got, want := h.Stats(), (Stats{Live: 0, Allocs: 6, Frees: 6, UAFFrees: 2, HighWater: 6}); got != want {
		t.Fatalf("after the batch: stats = %+v, want %+v", got, want)
	}
	// Boxed pushes ran plain[2] (Free), plain[0], plain[1]; typed ones
	// typed[0], typed[1], typed[2]. Each list pops its last push first.
	for i, want := range []Addr{plain[1], plain[0], plain[2]} {
		if a := h.Alloc(10 + i); a != want {
			t.Fatalf("boxed reuse %d: got %v, want %v", i, a, want)
		}
	}
	for i, want := range []Addr{typed[2], typed[1], typed[0]} {
		if a := objType.Alloc(h, &typedObj{v: 10 + i}); a != want {
			t.Fatalf("typed reuse %d: got %v, want %v", i, a, want)
		}
	}
	if got, want := h.Stats(), (Stats{Live: 6, Allocs: 12, Frees: 6, UAFFrees: 2, HighWater: 6}); got != want {
		t.Fatalf("after the reuse: stats = %+v, want %+v", got, want)
	}

	nodes := make([]*typedObj, 64)
	for i := range nodes {
		nodes[i] = &typedObj{v: i}
	}
	warm := make([]Addr, len(nodes))
	cycle := func() {
		for i, n := range nodes {
			warm[i] = objType.Alloc(h, n)
		}
		h.FreeBulk(warm)
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("a warm alloc-and-FreeBulk cycle allocates %v times, want 0", avg)
	}
}

// Chunks of two types grow interleaved when two tasks allocate at once:
// every chunk holds one type, every node loads back through its own
// type with its own value, and the books balance. Run under -race this
// guards the directory's copy-on-write growth across tags.
func TestHeapTypedChunksGrowInterleaved(t *testing.T) {
	h := NewHeap(0)
	const per = 3*chunkSize + 17
	var typed, other []Addr
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < per; i++ {
			typed = append(typed, objType.Alloc(h, &typedObj{v: i}))
			if n, ok := objType.Load(h, typed[i/2]); !ok || n.v != i/2 {
				t.Errorf("typed node %d reads %+v ok=%v", i/2, n, ok)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < per; i++ {
			other = append(other, otherType.Alloc(h, &otherObj{v: -i}))
			if n, ok := otherType.Load(h, other[i/2]); !ok || n.v != -(i/2) {
				t.Errorf("other node %d reads %+v ok=%v", i/2, n, ok)
				return
			}
		}
	}()
	wg.Wait()
	chunks := map[Tag]int{}
	for _, e := range *h.dir.Load() {
		chunks[e.tag]++
	}
	want := map[Tag]int{objType.tag: per/chunkSize + 1, otherType.tag: per/chunkSize + 1}
	if len(chunks) != len(want) || chunks[objType.tag] != want[objType.tag] || chunks[otherType.tag] != want[otherType.tag] {
		t.Fatalf("chunks per tag = %v, want %v", chunks, want)
	}
	for i := range typed {
		if n, ok := objType.Load(h, typed[i]); !ok || n.v != i {
			t.Fatalf("typed node %d reads %+v ok=%v", i, n, ok)
		}
		if n, ok := otherType.Load(h, other[i]); !ok || n.v != -i {
			t.Fatalf("other node %d reads %+v ok=%v", i, n, ok)
		}
	}
	if st := h.Stats(); st.Live != 2*per || st.Allocs != 2*per || st.HighWater != 2*per {
		t.Fatalf("stats = %+v", st)
	}
}

// poolState is one tag's allocator state as a test sees it.
type poolState struct {
	Free      []uint64
	Next, End uint64
}

// heapState is everything the allocator books: the counters and every
// tag's pool.
type heapState struct {
	Stats
	Pools map[Tag]poolState
}

func stateOf(h *Heap) heapState {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := heapState{Stats: h.Stats(), Pools: map[Tag]poolState{}}
	for tag, p := range h.pools {
		if p.end != 0 {
			st.Pools[Tag(tag)] = poolState{Free: slices.Clone(p.free), Next: p.next, End: p.end}
		}
	}
	return st
}

// The whole allocator state — Live, Allocs, Frees, HighWater and both
// pools, free lists and bump ranges — after every step of a lifecycle
// that allocates, frees, bulk-frees and reuses on a boxed and a
// typed pool at once, not only the field each step is about.
func TestHeapBooksWholeState(t *testing.T) {
	h := NewHeap(0)
	u0 := h.Alloc(0)                    // boxed chunk 0: slots [0, 4096)
	n0 := objType.Alloc(h, &typedObj{}) // objType chunk 1: slots [4096, 8192)
	u1 := h.Alloc(1)
	n1 := objType.Alloc(h, &typedObj{})
	tag := objType.tag
	const c1 = chunkSize
	check := func(step string, want heapState) {
		t.Helper()
		got := stateOf(h)
		if got.Stats != want.Stats || len(got.Pools) != len(want.Pools) {
			t.Fatalf("%s: state = %+v, want %+v", step, got, want)
		}
		for tg, p := range want.Pools {
			g := got.Pools[tg]
			if g.Next != p.Next || g.End != p.End || !slices.Equal(g.Free, p.Free) {
				t.Fatalf("%s: pool %d = %+v, want %+v", step, tg, g, p)
			}
		}
	}
	if u0.Index() != 0 || u1.Index() != 1 || n0.Index() != c1 || n1.Index() != c1+1 {
		t.Fatalf("addresses %v %v %v %v", u0, u1, n0, n1)
	}
	check("alloc", heapState{
		Stats: Stats{Live: 4, Allocs: 4, HighWater: 4},
		Pools: map[Tag]poolState{boxed.tag: {Next: 2, End: c1}, tag: {Next: c1 + 2, End: 2 * c1}},
	})
	h.Free(n0)
	check("typed free", heapState{
		Stats: Stats{Live: 3, Allocs: 4, Frees: 1, HighWater: 4},
		Pools: map[Tag]poolState{boxed.tag: {Next: 2, End: c1}, tag: {Free: []uint64{c1}, Next: c1 + 2, End: 2 * c1}},
	})
	h.FreeBulk([]Addr{u1, n1, u0})
	check("bulk free", heapState{
		Stats: Stats{Live: 0, Allocs: 4, Frees: 4, HighWater: 4},
		Pools: map[Tag]poolState{boxed.tag: {Free: []uint64{1, 0}, Next: 2, End: c1}, tag: {Free: []uint64{c1, c1 + 1}, Next: c1 + 2, End: 2 * c1}},
	})
	if a := objType.Alloc(h, &typedObj{}); a != n1 {
		t.Fatalf("typed reuse got %v, want %v", a, n1)
	}
	if a := h.Alloc(2); a != u0 {
		t.Fatalf("boxed reuse got %v, want %v", a, u0)
	}
	check("reuse", heapState{
		Stats: Stats{Live: 2, Allocs: 6, Frees: 4, HighWater: 4},
		Pools: map[Tag]poolState{boxed.tag: {Free: []uint64{1}, Next: 2, End: c1}, tag: {Free: []uint64{c1}, Next: c1 + 2, End: 2 * c1}},
	})
	h.Free(n1)
	h.Free(n1)
	check("double free", heapState{
		Stats: Stats{Live: 1, Allocs: 6, Frees: 5, UAFFrees: 1, HighWater: 4},
		Pools: map[Tag]poolState{boxed.tag: {Free: []uint64{1}, Next: 2, End: c1}, tag: {Free: []uint64{c1, c1 + 1}, Next: c1 + 2, End: 2 * c1}},
	})
}

// The heap has one chunk kind: every directory entry, boxed ones
// included, carries the tag of a registered Type, never the zero tag.
func TestEveryChunkNamesARegisteredType(t *testing.T) {
	h := NewHeap(0)
	h.Alloc(1)
	objType.Alloc(h, &typedObj{})
	otherType.Alloc(h, &otherObj{})
	types.mu.Lock()
	registered := map[Tag]bool{}
	for _, tag := range types.tags {
		registered[tag] = true
	}
	types.mu.Unlock()
	dir := *h.dir.Load()
	if len(dir) != 3 {
		t.Fatalf("directory has %d chunks, want 3", len(dir))
	}
	for i, e := range dir {
		if e.tag == 0 || !registered[e.tag] {
			t.Errorf("chunk %d has tag %d, which names no registered Type", i, e.tag)
		}
	}
	if dir[0].tag != boxed.tag {
		t.Errorf("the boxed object's chunk has tag %d, want Type[any]'s %d", dir[0].tag, boxed.tag)
	}
}
