package comm

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3)
	m.Inc(0, 1)
	m.Inc(0, 1)
	m.Inc(2, 0)
	if m.Get(0, 1) != 2 || m.Get(2, 0) != 1 || m.Get(1, 2) != 0 {
		t.Fatalf("matrix = %v", m.Snapshot())
	}
	if m.Total() != 3 {
		t.Fatalf("total = %d", m.Total())
	}
	rows, _ := m.Totals()
	cols := m.ColTotals()
	if rows[0] != 2 || rows[2] != 1 || rows[1] != 0 {
		t.Fatalf("rows = %v", rows)
	}
	if cols[1] != 2 || cols[0] != 1 || cols[2] != 0 {
		t.Fatalf("cols = %v", cols)
	}
	m.Reset()
	if m.Total() != 0 {
		t.Fatal("reset left residue")
	}
}

func TestMatrixTotalsOnePass(t *testing.T) {
	// Sizes straddling the cache-line row stride: rows shorter than,
	// equal to, and longer than one 8-cell line.
	for _, n := range []int{1, 3, 8, 9, 17} {
		m := NewMatrix(n)
		want := int64(0)
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				for k := 0; k < (src+2*dst)%5; k++ {
					m.Inc(src, dst)
					want++
				}
			}
		}
		rows, cols := m.Totals()
		if got := m.ColTotals(); !equalInt64s(got, cols) {
			t.Fatalf("n=%d ColTotals %v != Totals cols %v", n, got, cols)
		}
		var rowSum, colSum int64
		for i := 0; i < n; i++ {
			rowSum += rows[i]
			colSum += cols[i]
		}
		if rowSum != want || colSum != want || m.Total() != want {
			t.Fatalf("n=%d totals disagree: rows=%d cols=%d Total=%d want=%d",
				n, rowSum, colSum, m.Total(), want)
		}
	}
}

func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMatrixSnapshotIsCopy(t *testing.T) {
	m := NewMatrix(2)
	m.Inc(1, 0)
	snap := m.Snapshot()
	m.Inc(1, 0)
	if snap[1][0] != 1 {
		t.Fatal("snapshot aliased live data")
	}
}

func TestMatrixConcurrent(t *testing.T) {
	m := NewMatrix(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Inc(g%4, (g+i)%4)
			}
		}(g)
	}
	wg.Wait()
	if m.Total() != 8000 {
		t.Fatalf("total = %d", m.Total())
	}
}

// The cell grid: rows padded to whole 128-byte line pairs, the grid
// aligned to 128 bytes, and no booked or kindless add lands outside its
// pair's line.
func TestMatrixCellLayout(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 9, 17} {
		m := NewMatrix(n)
		if m.stride%rowQuantum != 0 || m.stride < n*pairCells {
			t.Fatalf("n=%d: stride %d cells, want a multiple of %d holding %d", n, m.stride, rowQuantum, n*pairCells)
		}
		if addr := uintptr(unsafe.Pointer(&m.cells[0])); addr%(rowQuantum*8) != 0 {
			t.Fatalf("n=%d: grid at %#x is not 128-byte aligned", n, addr)
		}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				for k := 0; k < NumKinds; k++ {
					m.Book(src, dst, Kind(k))
				}
				m.Inc(src, dst)
			}
		}
		for i := range m.cells {
			src, col := i/m.stride, i%m.stride
			want := int64(1)
			if col >= n*pairCells {
				want = 0 // row padding
			}
			if got := m.cells[i].Load(); got != want {
				t.Fatalf("n=%d: cell %d (row %d, column %d) = %d, want %d", n, i, src, col, got, want)
			}
		}
		if got, want := m.Total(), int64(n*n*pairCells); got != want {
			t.Fatalf("n=%d: Total() = %d, want %d", n, got, want)
		}
	}
}

// Counters bound to a matrix read their remote totals from its cells:
// Snapshot, Sub and Reset see booked events, Get/Snapshot/Total/Totals
// sum every kind of a pair, and a kindless Inc is a matrix event no
// counter reads.
func TestMatrixCellsBackBoundCounters(t *testing.T) {
	m := NewMatrix(3)
	c := NewCounters(m)
	m.Book(0, 1, KindGet)
	m.Book(0, 1, KindNICAMO)
	before, beforeM := c.SnapshotMatrix()
	m.Book(0, 1, KindGet)
	m.Book(2, 0, KindBulk)
	c.IncBulkBytes(2, 64)
	m.Book(1, 1, KindAMAMO)
	m.Inc(2, 1) // kindless

	d := c.Snapshot().Sub(before)
	if want := (Snapshot{Gets: 1, AMAMOs: 1, BulkXfers: 1, BulkBytes: 64}); d != want {
		t.Fatalf("Sub window = %+v, want %+v", d, want)
	}
	snap, pairs := c.SnapshotMatrix()
	if !reflect.DeepEqual(pairs, m.Snapshot()) {
		t.Fatalf("SnapshotMatrix pairs %v != Matrix.Snapshot %v", pairs, m.Snapshot())
	}
	if m.Get(0, 1) != 3 || m.Get(2, 0) != 1 || m.Get(1, 1) != 1 || m.Get(2, 1) != 1 {
		t.Fatalf("pairs = %v", pairs)
	}
	// The kindless add is the one matrix event with no counter.
	if snap.Remote() != 5 || m.Total() != 6 || snap.Sub(before).Remote() != 3 {
		t.Fatalf("Remote() = %d (window %d), Total() = %d; want 5, 3, 6", snap.Remote(), snap.Sub(before).Remote(), m.Total())
	}
	if beforeM[0][1] != 2 || subTotal(pairs, beforeM) != 4 {
		t.Fatalf("window pairs: before %v, after %v", beforeM, pairs)
	}
	rows, cols := m.Totals()
	if !equalInt64s(rows, []int64{3, 1, 2}) || !equalInt64s(cols, []int64{1, 5, 0}) {
		t.Fatalf("Totals = %v / %v, want [3 1 2] / [1 5 0]", rows, cols)
	}

	// Resetting the matrix resets the counters' remote totals, which are
	// its cells, and nothing else.
	m.Reset()
	if s := c.Snapshot(); s != (Snapshot{BulkBytes: 64}) || m.Total() != 0 {
		t.Fatalf("after Matrix.Reset: counters %+v, matrix total %d", s, m.Total())
	}
	m.Book(1, 2, KindPut)
	c.Reset()
	if c.Snapshot() != (Snapshot{}) || m.Total() != 0 {
		t.Fatal("Counters.Reset left residue")
	}

	// Unbound counters have no pairs.
	if _, p := new(Counters).SnapshotMatrix(); p != nil {
		t.Fatalf("unbound SnapshotMatrix pairs = %v, want nil", p)
	}
}

// subTotal is the sum of a − b.
func subTotal(a, b [][]int64) (t int64) {
	for i := range a {
		for j := range a[i] {
			t += a[i][j] - b[i][j]
		}
	}
	return t
}

// Concurrent books from every locale are exact on both sides.
func TestMatrixBookConcurrent(t *testing.T) {
	const n, per = 4, 1000
	m := NewMatrix(n)
	c := NewCounters(m)
	var wg sync.WaitGroup
	for g := 0; g < 2*n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Book(g%n, (g+i)%n, Kind(i%NumKinds))
			}
		}(g)
	}
	wg.Wait()
	s, pairs := c.SnapshotMatrix()
	var sum int64
	for _, row := range pairs {
		for _, v := range row {
			sum += v
		}
	}
	if s.Remote() != 2*n*per || sum != s.Remote() || m.Total() != sum {
		t.Fatalf("Remote() = %d, Σ pairs = %d, Total() = %d, want %d each", s.Remote(), sum, m.Total(), 2*n*per)
	}
}
