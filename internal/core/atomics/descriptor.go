package atomics

import (
	"sync"

	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

// DescriptorTable implements the paper's stated future work: "allow
// more than 2^16 locales while still allowing RDMA atomic operations,
// by introducing another level of indirection and utilizing a
// descriptor index into a separate table of objects in place of the
// pointer itself."
//
// A descriptor is a plain 64-bit index; the table entry holding the
// full 128-bit wide pointer lives on shard locale (index mod L).
// Because the index is not partitioned into locale/address bits, it is
// not bounded by 16 bits of locality — an AtomicObject in
// ModeDescriptor therefore keeps the NIC-atomic fast path at any
// locale count. The price is one resolution step per decode, a GET
// when the shard is remote; registrations are interned so a given
// address is assigned exactly one descriptor.
type DescriptorTable struct {
	sys *pgas.System

	mu      sync.Mutex
	entries []gas.Addr // descriptor -> address; index 0 reserved for nil
	intern  map[gas.Addr]Descriptor
}

// Descriptor is an index into a DescriptorTable; 0 is nil.
type Descriptor uint64

// DescriptorNil is the nil descriptor.
const DescriptorNil Descriptor = 0

// NewDescriptorTable creates an empty table for the system.
func NewDescriptorTable(c *pgas.Ctx) *DescriptorTable {
	return &DescriptorTable{
		sys:     c.Sys(),
		entries: []gas.Addr{gas.AddrNil},
		intern:  map[gas.Addr]Descriptor{gas.AddrNil: DescriptorNil},
	}
}

// Register interns addr and returns its descriptor. A remote shard
// insertion is one AM atomic toward the shard, priced like any other;
// repeated registrations of the same address are free after the first
// (interned).
//
// The table is stored process-side with a lock standing in for the
// shard locale's insertion path; the simulated communication cost is
// charged to the shard that would own the new entry.
func (t *DescriptorTable) Register(c *pgas.Ctx, addr gas.Addr) Descriptor {
	t.mu.Lock()
	if d, ok := t.intern[addr]; ok {
		t.mu.Unlock()
		return d
	}
	d := Descriptor(len(t.entries))
	t.entries = append(t.entries, addr)
	t.intern[addr] = d
	t.mu.Unlock()

	if shard := t.shardOf(d); shard != c.Here() {
		c.ChargeAMAMO(shard)
	}
	return d
}

// Resolve returns the address a descriptor stands for, paying a GET
// when the owning shard is remote. Resolving DescriptorNil is free.
func (t *DescriptorTable) Resolve(c *pgas.Ctx, d Descriptor) gas.Addr {
	if d == DescriptorNil {
		return gas.AddrNil
	}
	if shard := t.shardOf(d); shard != c.Here() {
		c.ChargeGet(shard)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if uint64(d) >= uint64(len(t.entries)) {
		panic("atomics: resolve of unregistered descriptor")
	}
	return t.entries[d]
}

// Len returns the number of live descriptors (excluding nil).
func (t *DescriptorTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries) - 1
}

func (t *DescriptorTable) shardOf(d Descriptor) int {
	return int(uint64(d) % uint64(t.sys.NumLocales()))
}
