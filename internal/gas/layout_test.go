package gas

import (
	"reflect"
	"testing"

	"gopgas/internal/layouttest"
)

// Every Load and Store reads locale and dir, other locales' GETs
// included; every Alloc and Free writes the allocator's words.
func TestHeapLayout(t *testing.T) {
	layouttest.CheckApart(t, reflect.TypeFor[Heap](),
		[]string{"locale", "dir"},
		[]string{"mu", "pools", "live", "allocs", "frees", "highWater", "uafLoads", "uafStores", "uafFrees"})
}
