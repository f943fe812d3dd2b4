package comm

import (
	"sync/atomic"
	"unsafe"
)

// Kind names the seven kinds of remote event, the ones Snapshot.Remote
// adds up. A remote event is booked once, by Matrix.Book, on the cell
// keyed (source, destination, kind).
type Kind uint8

const (
	// Nothing books KindPut: heap nodes are published once and never
	// overwritten, so the runtime issues no PUT. The kind stays while
	// the benchmark's pgas.puts_per_op reads it (ROADMAP item 7 drops
	// both).
	KindPut        Kind = iota // Snapshot.Puts
	KindGet                    // Snapshot.Gets
	KindNICAMO                 // Snapshot.NICAMOs
	KindAMAMO                  // Snapshot.AMAMOs
	KindOnStmt                 // Snapshot.OnStmts
	KindBulk                   // Snapshot.BulkXfers
	KindDCASRemote             // Snapshot.DCASRemote

	// NumKinds is the number of remote event kinds.
	NumKinds = int(iota)
)

// kindWord is the Snapshot field, as an index into Snapshot.words, that
// each kind's cells add up to.
var kindWord = [NumKinds]uintptr{
	KindPut:        unsafe.Offsetof(Snapshot{}.Puts) / 8,
	KindGet:        unsafe.Offsetof(Snapshot{}.Gets) / 8,
	KindNICAMO:     unsafe.Offsetof(Snapshot{}.NICAMOs) / 8,
	KindAMAMO:      unsafe.Offsetof(Snapshot{}.AMAMOs) / 8,
	KindOnStmt:     unsafe.Offsetof(Snapshot{}.OnStmts) / 8,
	KindBulk:       unsafe.Offsetof(Snapshot{}.BulkXfers) / 8,
	KindDCASRemote: unsafe.Offsetof(Snapshot{}.DCASRemote) / 8,
}

// Matrix records communication volume by (source, destination) locale
// pair, the per-locale breakdown Chapel's commDiagnostics offers. It
// answers questions the scalar Counters cannot: is traffic balanced, is
// one locale a hotspot (e.g. the global epoch's home), did a scatter
// phase touch every destination?
//
// It is also where the remote events are counted. Each (src, dst) pair
// holds one cell per Kind plus one kindless cell (Inc), eight int64s,
// one 64-byte line; Book adds 1 to one cell and is the whole cost of
// counting a remote event. Every read sums over the cells: Get,
// Snapshot, Total and Totals over a pair's eight, and Counters bound to
// the matrix (NewCounters) over each kind's n² — so a bound Counters'
// Remote() equals Total() by construction, less the kindless cells.
//
// Storage is row-major, each source's row padded to whole 128-byte line
// pairs (the adjacent-line prefetcher fetches lines two at a time) and
// the grid aligned to 128 bytes: every add is keyed by its source
// locale, so adds from different locales never share a line. The
// padding cells are never written.
//
// All methods are safe for concurrent use.
type Matrix struct {
	n      int
	stride int // cells per source row
	cells  []atomic.Int64
}

const (
	// pairCells is a pair's cells: one per Kind, then the kindless one.
	pairCells = 8
	kindless  = NumKinds
	// rowQuantum is the row-stride quantum in cells: 128 bytes.
	rowQuantum = 16
)

// NewMatrix creates an n×n communication matrix.
func NewMatrix(n int) *Matrix {
	stride := (n*pairCells + rowQuantum - 1) &^ (rowQuantum - 1)
	raw := make([]atomic.Int64, n*stride+rowQuantum-1)
	skip := 0
	if len(raw) > 0 {
		skip = int(-uintptr(unsafe.Pointer(&raw[0])) % (rowQuantum * 8) / 8)
	}
	return &Matrix{n: n, stride: stride, cells: raw[skip : skip+n*stride]}
}

// Book records one remote event of kind k from src to dst: one atomic
// add, which both the matrix and any Counters bound to it read.
func (m *Matrix) Book(src, dst int, k Kind) {
	m.cells[src*m.stride+dst*pairCells+int(k)].Add(1)
}

// Inc records one communication event from src to dst of no kind: the
// matrix reads it, no counter does. Booked events go through Book.
func (m *Matrix) Inc(src, dst int) {
	m.cells[src*m.stride+dst*pairCells+kindless].Add(1)
}

// pair returns the cells of (src, dst).
func (m *Matrix) pair(src, dst int) *[pairCells]atomic.Int64 {
	return (*[pairCells]atomic.Int64)(m.cells[src*m.stride+dst*pairCells:])
}

// sum loads a pair's cells once each and returns their total, adding
// each kind's cell to kinds when it is not nil.
func (m *Matrix) sum(src, dst int, kinds *[NumKinds]int64) (t int64) {
	p := m.pair(src, dst)
	for k := range p {
		v := p[k].Load()
		t += v
		if kinds != nil && k < NumKinds {
			kinds[k] += v
		}
	}
	return t
}

// read is the one pass every read makes: each cell loaded once, the
// pair totals into pairs (when not nil) and the kind totals into kinds
// (when not nil). It returns the sum over all pairs.
func (m *Matrix) read(pairs [][]int64, kinds *[NumKinds]int64) (total int64) {
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			v := m.sum(i, j, kinds)
			if pairs != nil {
				pairs[i][j] = v
			}
			total += v
		}
	}
	return total
}

// Get returns the event count from src to dst.
func (m *Matrix) Get(src, dst int) int64 {
	return m.sum(src, dst, nil)
}

// newPairs returns a zeroed n×n matrix.
func (m *Matrix) newPairs() [][]int64 {
	out := make([][]int64, m.n)
	for i := range out {
		out[i] = make([]int64, m.n)
	}
	return out
}

// Snapshot returns a copy of the matrix.
func (m *Matrix) Snapshot() [][]int64 {
	out := m.newPairs()
	m.read(out, nil)
	return out
}

// Total returns the sum over all pairs.
func (m *Matrix) Total() int64 {
	return m.read(nil, nil)
}

// Totals returns the outbound (row) and inbound (column) totals per
// locale from one pass over the cells — each cell is loaded exactly
// once and contributes to both vectors, instead of the two full
// re-scans separate row and column reads would make.
func (m *Matrix) Totals() (rows, cols []int64) {
	rows = make([]int64, m.n)
	cols = make([]int64, m.n)
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			v := m.sum(i, j, nil)
			rows[i] += v
			cols[j] += v
		}
	}
	return rows, cols
}

// ColTotals returns inbound totals per destination locale.
func (m *Matrix) ColTotals() []int64 {
	_, cols := m.Totals()
	return cols
}

// Reset zeroes the matrix, and with it the remote totals of any
// Counters bound to it.
func (m *Matrix) Reset() {
	for i := range m.cells {
		m.cells[i].Store(0)
	}
}

// SubMatrix returns the element-wise difference a - b of two
// matrix snapshots — the per-pair delta of a timed or measured region,
// as the workload engine and the figures capture it.
func SubMatrix(a, b [][]int64) [][]int64 {
	out := make([][]int64, len(a))
	for i := range a {
		out[i] = make([]int64, len(a[i]))
		for j := range a[i] {
			out[i][j] = a[i][j] - b[i][j]
		}
	}
	return out
}

// TotalsOf returns the outbound (row) and inbound (column) totals of a
// matrix snapshot from one pass over the cells — the snapshot-side
// twin of Matrix.Totals, for deltas produced by SubMatrix.
func TotalsOf(m [][]int64) (rows, cols []int64) {
	rows = make([]int64, len(m))
	cols = make([]int64, len(m))
	for i := range m {
		for j := range m[i] {
			rows[i] += m[i][j]
			cols[j] += m[i][j]
		}
	}
	return rows, cols
}

// MaxInboundOf returns the largest inbound (column) total of m: the
// hotspot metric — how much of the system's traffic lands on the
// busiest single locale.
func MaxInboundOf(m [][]int64) int64 {
	_, cols := TotalsOf(m)
	var best int64
	for _, col := range cols {
		if col > best {
			best = col
		}
	}
	return best
}
