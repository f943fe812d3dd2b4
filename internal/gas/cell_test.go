package gas

import (
	"sync"
	"sync/atomic"
	"testing"
)

// The contract any Cell128 implementation must keep: writers that
// CAS-increment both halves together lose no update, and a reader never
// sees the halves disagree.
func TestCell128HalvesMoveTogether(t *testing.T) {
	var c Cell128
	const writers, per = 4, 2000
	var wg sync.WaitGroup
	var done atomic.Bool
	var torn atomic.Int64
	wg.Add(2)
	for r := 0; r < 2; r++ {
		go func() {
			defer wg.Done()
			for !done.Load() {
				if lo, hi := c.Load(); lo != hi {
					torn.Add(1)
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for g := 0; g < writers; g++ {
		ww.Add(1)
		go func() {
			defer ww.Done()
			for i := 0; i < per; i++ {
				for {
					lo, hi := c.Load()
					if c.CAS(lo, hi, lo+1, hi+1) {
						break
					}
				}
			}
		}()
	}
	ww.Wait()
	done.Store(true)
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("readers saw the halves disagree %d times", n)
	}
	if lo, hi := c.Load(); lo != writers*per || hi != writers*per {
		t.Fatalf("final = (%d,%d), want (%d,%d)", lo, hi, writers*per, writers*per)
	}
}
