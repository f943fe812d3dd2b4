package stack

import (
	"testing"
	"testing/quick"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
)

// Property: under any sequential push/pop sequence the stack agrees
// with a slice model (LIFO order, emptiness, length).
func TestStackModelProperty(t *testing.T) {
	s := pgas.NewSystem(pgas.Config{Locales: 2, Backend: comm.BackendNone})
	defer s.Shutdown()
	c := s.Ctx(0)
	em := epoch.NewEpochManager(c)

	f := func(ops []int16) bool {
		st := New[int](c, 0, em)
		tok := em.Register(c)
		defer tok.Unregister(c)
		var model []int
		for i, op := range ops {
			if op >= 0 {
				st.Push(c, tok, i)
				model = append(model, i)
			} else {
				v, ok := st.Pop(c, tok)
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				want := model[len(model)-1]
				model = model[:len(model)-1]
				if !ok || v != want {
					return false
				}
			}
		}
		if st.Len(c, tok) != len(model) {
			return false
		}
		// Drain: remaining elements come out in reverse model order.
		for k := len(model) - 1; k >= 0; k-- {
			v, ok := st.Pop(c, tok)
			if !ok || v != model[k] {
				return false
			}
		}
		_, ok := st.Pop(c, tok)
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: peek never mutates.
func TestPeekPureProperty(t *testing.T) {
	s := pgas.NewSystem(pgas.Config{Locales: 1, Backend: comm.BackendNone})
	defer s.Shutdown()
	c := s.Ctx(0)
	em := epoch.NewEpochManager(c)
	f := func(n uint8) bool {
		st := New[int](c, 0, em)
		tok := em.Register(c)
		defer tok.Unregister(c)
		for i := 0; i < int(n%20); i++ {
			st.Push(c, tok, i)
		}
		before := st.Len(c, tok)
		for i := 0; i < 5; i++ {
			st.peek(c, tok)
		}
		return st.Len(c, tok) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
