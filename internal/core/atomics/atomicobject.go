package atomics

import (
	"fmt"

	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

// Mode selects the pointer representation of an AtomicObject.
type Mode int

const (
	// ModeAuto is Compressed: pgas.NewSystem refuses more than 2^16
	// locales, so every system fits the compressed word.
	ModeAuto Mode = iota
	// ModeCompressed packs locale+address into one RDMA-able word.
	ModeCompressed
	// ModeWide keeps the 128-bit wide pointer; all ops become DCAS. It
	// is chosen explicitly: the paper's fallback beyond 2^16 locales,
	// run here on systems that would fit the compressed word.
	ModeWide
	// ModeDescriptor stores a table index in the word (future work).
	ModeDescriptor
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeCompressed:
		return "compressed"
	case ModeWide:
		return "wide"
	case ModeDescriptor:
		return "descriptor"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configure an AtomicObject.
type Options struct {
	// Mode selects the representation; ModeAuto (compressed) is the
	// paper's behaviour on every system NewSystem accepts.
	Mode Mode
	// ABA enables the 128-bit stamped cell and the *ABA operation
	// variants. Requires a compressed pointer word (ModeCompressed,
	// ModeDescriptor, or ModeAuto resolving to compressed): the stamp
	// occupies the second half of the double word, so a wide pointer
	// leaves no room for it — the same constraint the Chapel
	// implementation has.
	ABA bool
	// Table supplies the descriptor table for ModeDescriptor.
	Table *DescriptorTable
}

// AtomicObject provides atomic operations on object references, homed
// on a specific locale like any other datum in the global address
// space. It is the distributed variant; see LocalAtomicObject for the
// shared-memory-optimized one.
type AtomicObject struct {
	home  int
	mode  Mode
	hasAB bool

	w64   *pgas.Word64  // compressed / descriptor, no ABA
	w128  *pgas.Word128 // ABA cell (lo=word, hi=stamp) or wide pointer (lo=vaddr, hi=locality)
	table *DescriptorTable
}

// New creates an AtomicObject homed on the given locale, initially
// nil. With Options zero value it matches the paper's default:
// compression, no ABA stamp.
func New(c *pgas.Ctx, home int, opt Options) *AtomicObject {
	mode := opt.Mode
	if mode == ModeAuto {
		mode = ModeCompressed
	}
	a := &AtomicObject{home: home, mode: mode, hasAB: opt.ABA}
	switch mode {
	case ModeCompressed:
		if opt.ABA {
			a.w128 = pgas.NewWord128(c, home, 0, 0)
		} else {
			a.w64 = pgas.NewWord64(c, home, 0)
		}
	case ModeWide:
		if opt.ABA {
			panic("atomics: ABA protection requires a compressed pointer word; wide pointers leave no room for the stamp")
		}
		a.w128 = pgas.NewWord128(c, home, 0, 0)
	case ModeDescriptor:
		if opt.Table == nil {
			panic("atomics: ModeDescriptor requires Options.Table")
		}
		a.table = opt.Table
		if opt.ABA {
			a.w128 = pgas.NewWord128(c, home, 0, 0)
		} else {
			a.w64 = pgas.NewWord64(c, home, 0)
		}
	default:
		panic("atomics: invalid mode " + mode.String())
	}
	return a
}

// Home returns the locale the atomic cell resides on.
func (a *AtomicObject) Home() int { return a.home }

// Mode returns the resolved representation.
func (a *AtomicObject) Mode() Mode { return a.mode }

// encode converts an object reference into the representation's word.
func (a *AtomicObject) encode(c *pgas.Ctx, addr gas.Addr) uint64 {
	if a.mode == ModeDescriptor {
		return uint64(a.table.Register(c, addr))
	}
	return uint64(addr)
}

// decode converts a representation word back into an object reference.
func (a *AtomicObject) decode(c *pgas.Ctx, word uint64) gas.Addr {
	if a.mode == ModeDescriptor {
		return a.table.Resolve(c, Descriptor(word))
	}
	return gas.Addr(word)
}

// Read atomically loads the referenced object's address.
func (a *AtomicObject) Read(c *pgas.Ctx) gas.Addr {
	switch {
	case a.mode == ModeWide:
		lo, hi := a.w128.Read(c)
		return wideToAddr(lo, hi)
	case a.hasAB:
		return a.decode(c, a.w128.ReadLo64(c))
	default:
		return a.decode(c, a.w64.Read(c))
	}
}

// Write atomically stores a new object reference. On an ABA-enabled
// object the stamp is left unchanged (use WriteABA to bump it).
func (a *AtomicObject) Write(c *pgas.Ctx, addr gas.Addr) {
	switch {
	case a.mode == ModeWide:
		lo, hi := addrToWide(addr)
		a.w128.Write(c, lo, hi)
	case a.hasAB:
		a.w128.WriteLo64(c, a.encode(c, addr))
	default:
		a.w64.Write(c, a.encode(c, addr))
	}
}

// Exchange atomically swaps in a new reference and returns the old.
func (a *AtomicObject) Exchange(c *pgas.Ctx, addr gas.Addr) gas.Addr {
	switch {
	case a.mode == ModeWide:
		lo, hi := addrToWide(addr)
		oldLo, oldHi := a.w128.Exchange(c, lo, hi)
		return wideToAddr(oldLo, oldHi)
	case a.hasAB:
		return a.decode(c, a.w128.ExchangeLo64(c, a.encode(c, addr)))
	default:
		return a.decode(c, a.w64.Exchange(c, a.encode(c, addr)))
	}
}

// CompareAndSwap atomically replaces old with new, reporting success.
// Without ABA protection this is exposed to the ABA problem if old's
// address has been recycled — which is the point of the stamped
// variants.
func (a *AtomicObject) CompareAndSwap(c *pgas.Ctx, old, new gas.Addr) bool {
	switch {
	case a.mode == ModeWide:
		oLo, oHi := addrToWide(old)
		nLo, nHi := addrToWide(new)
		return a.w128.DCAS(c, oLo, oHi, nLo, nHi)
	case a.hasAB:
		return a.w128.CASLo64(c, a.encode(c, old), a.encode(c, new))
	default:
		return a.w64.CompareAndSwap(c, a.encode(c, old), a.encode(c, new))
	}
}

// ReadABA atomically loads the stamped reference. Full-width reads
// route as DCAS-class operations (remote execution when remote).
func (a *AtomicObject) ReadABA(c *pgas.Ctx) ABA {
	a.requireABA()
	lo, hi := a.w128.Read(c)
	return ABA{addr: a.decode(c, lo), count: hi}
}

// WriteABA atomically stores a new reference and bumps the stamp.
func (a *AtomicObject) WriteABA(c *pgas.Ctx, addr gas.Addr) {
	a.requireABA()
	a.w128.WriteLoBumpHi(c, a.encode(c, addr))
}

// ExchangeABA atomically swaps in a new reference, bumps the stamp,
// and returns the previous stamped value.
func (a *AtomicObject) ExchangeABA(c *pgas.Ctx, addr gas.Addr) ABA {
	a.requireABA()
	oldLo, oldHi := a.w128.ExchangeLoBumpHi(c, a.encode(c, addr))
	return ABA{addr: a.decode(c, oldLo), count: oldHi}
}

// CompareAndSwapABA succeeds only if both the reference and the stamp
// still match old, installing new with an incremented stamp. A stale
// read therefore fails even when old's address has been recycled.
func (a *AtomicObject) CompareAndSwapABA(c *pgas.Ctx, old ABA, new gas.Addr) bool {
	a.requireABA()
	return a.w128.DCAS(c,
		a.encode(c, old.addr), old.count,
		a.encode(c, new), old.count+1)
}

func (a *AtomicObject) requireABA() {
	if !a.hasAB {
		panic("atomics: *ABA operation on an AtomicObject created without Options.ABA")
	}
}

// addrToWide splits an Addr into the (vaddr, locality) words of a wide
// pointer; wideToAddr reverses it. Nil maps to (0, 0).
func addrToWide(a gas.Addr) (lo, hi uint64) {
	w := a.Wide()
	return w.VAddr, w.Locality
}

func wideToAddr(lo, hi uint64) gas.Addr {
	return gas.WidePtr{Locality: hi, VAddr: lo}.Compress()
}
