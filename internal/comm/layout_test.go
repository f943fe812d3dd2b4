package comm

import (
	"testing"
	"unsafe"
)

// heldCounters keeps the counters under test on the heap, where every
// Counters in use lives: a stack copy's alignment is the frame's.
var heldCounters []*Counters

// Every Inc* reads the header (the nil check of c loads its first
// byte) and writes its source's shard. On real addresses, for the zero
// value and NewCounters alike: the shards sit on the 128-byte grid, and
// no 128-byte block (an adjacent-line pair) holds the header and a
// shard, or two shards.
func TestCountersShardLayout(t *testing.T) {
	if size := unsafe.Sizeof(counterShard{}); size%shardAlign != 0 {
		t.Fatalf("counterShard is %d B, want a multiple of %d", size, shardAlign)
	}
	heldCounters = []*Counters{new(Counters), NewCounters(NewMatrix(4))}
	block := func(p unsafe.Pointer, off uintptr) uintptr { return (uintptr(p) + off) / shardAlign }
	for i, c := range heldCounters {
		if addr := uintptr(unsafe.Pointer(&c.shards[0])); addr%shardAlign != 0 {
			t.Fatalf("counters %d: shard 0 at %#x is not %d-byte aligned", i, addr, shardAlign)
		}
		last := block(unsafe.Pointer(c), unsafe.Sizeof(c.pairs)-1) // the header's block
		for s := range c.shards {
			v := unsafe.Pointer(&c.shards[s].v)
			if first := block(v, 0); first <= last {
				t.Fatalf("counters %d: shard %d starts in block %d, the block of the word before it", i, s, first)
			}
			last = block(v, unsafe.Sizeof(c.shards[s].v)-1)
		}
	}
}
