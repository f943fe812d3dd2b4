package rcuarray

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
)

func newTestSystem(t testing.TB, locales int) *pgas.System {
	t.Helper()
	s := pgas.NewSystem(pgas.Config{Locales: locales, Backend: comm.BackendNone})
	t.Cleanup(s.Shutdown)
	return s
}

func setup(t testing.TB, locales, blockSize int) (*pgas.System, *Array[int], *epoch.Token, *pgas.Ctx, epoch.EpochManager) {
	s := newTestSystem(t, locales)
	c := s.Ctx(0)
	em := epoch.NewEpochManager(c)
	a := New[int](c, 0, blockSize, em)
	return s, a, em.Register(c), c, em
}

func TestEmptyArray(t *testing.T) {
	_, a, tok, c, _ := setup(t, 2, 4)
	if a.Len(c, tok) != 0 {
		t.Fatal("fresh array not empty")
	}
	if _, ok := a.Read(c, tok, 0); ok {
		t.Fatal("read from empty succeeded")
	}
	if a.Write(c, tok, 0, 1) {
		t.Fatal("write to empty succeeded")
	}
}

func TestGrowPreservesData(t *testing.T) {
	_, a, tok, c, _ := setup(t, 3, 4)
	a.Resize(c, tok, 10)
	for i := 0; i < 10; i++ {
		if !a.Write(c, tok, i, i*i) {
			t.Fatalf("write %d failed", i)
		}
	}
	a.Resize(c, tok, 25)
	if a.Len(c, tok) != 25 {
		t.Fatalf("len = %d", a.Len(c, tok))
	}
	for i := 0; i < 10; i++ {
		if v, ok := a.Read(c, tok, i); !ok || v != i*i {
			t.Fatalf("a[%d] = (%d,%v) after grow", i, v, ok)
		}
	}
	// New elements are zero-valued and writable.
	if v, ok := a.Read(c, tok, 20); !ok || v != 0 {
		t.Fatalf("a[20] = (%d,%v)", v, ok)
	}
}

func TestShrinkDropsTail(t *testing.T) {
	_, a, tok, c, em := setup(t, 2, 4)
	a.Resize(c, tok, 16)
	for i := 0; i < 16; i++ {
		a.Write(c, tok, i, i)
	}
	a.Resize(c, tok, 5)
	if a.Len(c, tok) != 5 {
		t.Fatalf("len = %d", a.Len(c, tok))
	}
	if _, ok := a.Read(c, tok, 5); ok {
		t.Fatal("read past shrunk length succeeded")
	}
	for i := 0; i < 5; i++ {
		if v, _ := a.Read(c, tok, i); v != i {
			t.Fatalf("a[%d] = %d", i, v)
		}
	}
	// Tables and dropped blocks are reclaimed after quiescence.
	tok.Unpin(c)
	em.Clear(c)
	st := em.Stats(c)
	// 2 resizes retired 2 old tables; shrink 16/4→5/4 dropped blocks
	// 2 and 3 (ceil(5/4)=2 survive of 4).
	if st.Reclaimed != st.Deferred || st.Deferred != 2+2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBlocksDistributed(t *testing.T) {
	_, a, tok, c, _ := setup(t, 4, 2)
	a.Resize(c, tok, 16) // 8 blocks round-robin over 4 locales
	seen := map[int]bool{}
	for i := 0; i < 16; i += 2 {
		l, ok := a.BlockOwner(c, tok, i)
		if !ok {
			t.Fatalf("owner of %d missing", i)
		}
		seen[l] = true
	}
	if len(seen) != 4 {
		t.Fatalf("blocks only on locales %v", seen)
	}
}

func TestAppend(t *testing.T) {
	_, a, tok, c, _ := setup(t, 2, 4)
	for i := 0; i < 10; i++ {
		if got := a.Append(c, tok, 100+i); got != i {
			t.Fatalf("append returned index %d, want %d", got, i)
		}
	}
	for i := 0; i < 10; i++ {
		if v, _ := a.Read(c, tok, i); v != 100+i {
			t.Fatalf("a[%d] = %d", i, v)
		}
	}
}

func TestResizeToZero(t *testing.T) {
	_, a, tok, c, _ := setup(t, 2, 4)
	a.Resize(c, tok, 9)
	a.Resize(c, tok, 0)
	if a.Len(c, tok) != 0 {
		t.Fatal("len != 0")
	}
	a.Resize(c, tok, 3) // grows again from empty
	if !a.Write(c, tok, 2, 7) {
		t.Fatal("write after regrow failed")
	}
}

// The RCU property: readers traversing an old table version survive a
// concurrent shrink because dropped blocks are retired, not freed.
func TestConcurrentReadersVsResize(t *testing.T) {
	s := newTestSystem(t, 4)
	c0 := s.Ctx(0)
	em := epoch.NewEpochManager(c0)
	a := New[int](c0, 0, 8, em)
	boot := em.Register(c0)
	a.Resize(c0, boot, 256)
	for i := 0; i < 256; i++ {
		a.Write(c0, boot, i, i)
	}
	boot.Unregister(c0)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var reads atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := s.Ctx(r % 4)
			tok := em.Register(c)
			defer tok.Unregister(c)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Read only the stable prefix: it survives every
				// shrink and no task writes it concurrently (RCU
				// protects table/block lifetimes, not element-level
				// read/write consistency). The structural churn —
				// tables and tail blocks being retired under us — is
				// what this test exercises.
				i := c.RandIntn(64)
				if v, ok := a.Read(c, tok, i); ok && v != i {
					t.Errorf("a[%d] = %d", i, v)
					return
				}
				reads.Add(1)
			}
		}(r)
	}
	// Resizer: shrink and regrow repeatedly, reclaiming as it goes. It
	// starts once a reader is reading (or a generous deadline passed),
	// so the rounds overlap reads instead of finishing before the
	// readers are scheduled.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := s.Ctx(0)
		tok := em.Register(c)
		defer tok.Unregister(c)
		for deadline := time.Now().Add(5 * time.Second); reads.Load() == 0 && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		for round := 0; round < 60; round++ {
			a.Resize(c, tok, 64)
			tok.TryReclaim(c)
			a.Resize(c, tok, 256)
			// Rewrite the tail the regrow zeroed so readers keep
			// validating (fresh blocks, not the retired ones).
			for i := 64; i < 256; i++ {
				a.Write(c, tok, i, i)
			}
			tok.TryReclaim(c)
		}
		close(stop)
	}()
	wg.Wait()

	em.Clear(c0)
	if uaf := s.HeapStats().UAFLoads; uaf != 0 {
		t.Fatalf("%d use-after-free loads — RCU grace period violated", uaf)
	}
	st := em.Stats(c0)
	if st.Reclaimed != st.Deferred {
		t.Fatalf("reclaimed %d of %d", st.Reclaimed, st.Deferred)
	}
	if reads.Load() == 0 {
		t.Fatal("no reads observed")
	}
}

// A reader that validates data while shrink+regrow churns: under the
// pin it must never observe a poisoned block even though whole tables
// are being retired.
func TestConcurrentResizeRace(t *testing.T) {
	s := newTestSystem(t, 2)
	c0 := s.Ctx(0)
	em := epoch.NewEpochManager(c0)
	a := New[int](c0, 0, 4, em)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := s.Ctx(g % 2)
			tok := em.Register(c)
			defer tok.Unregister(c)
			for i := 0; i < 50; i++ {
				a.Resize(c, tok, (g+1)*10+i%7)
				if i%8 == 0 {
					tok.TryReclaim(c)
				}
			}
		}(g)
	}
	wg.Wait()
	em.Clear(c0)
	if uaf := s.HeapStats().UAFLoads + s.HeapStats().UAFFrees; uaf != 0 {
		t.Fatalf("%d UAF events under concurrent resizes", uaf)
	}
	// Exactly one table is live at the end.
	tok := em.Register(c0)
	n := a.Len(c0, tok)
	if n < 0 {
		t.Fatal("corrupt length")
	}
	tok.Unregister(c0)
}

func TestInvalidArgsPanic(t *testing.T) {
	_, a, tok, c, _ := setup(t, 2, 4)
	for name, fn := range map[string]func(){
		"negative resize": func() { a.Resize(c, tok, -1) },
		"negative read":   func() { a.Read(c, tok, -1) },
		"zero block size": func() { New[int](c, 0, 0, a.em) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
