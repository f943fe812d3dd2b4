package queue

import (
	"testing"
	"testing/quick"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
)

// Property: under any sequential enqueue/dequeue sequence the queue
// agrees with a slice model (FIFO order, emptiness, length).
func TestQueueModelProperty(t *testing.T) {
	s := pgas.NewSystem(pgas.Config{Locales: 2, Backend: comm.BackendNone})
	defer s.Shutdown()
	c := s.Ctx(0)
	em := epoch.NewEpochManager(c)

	f := func(ops []int16) bool {
		q := New[int](c, 0, em)
		tok := em.Register(c)
		defer tok.Unregister(c)
		var model []int
		for i, op := range ops {
			if op >= 0 {
				q.Enqueue(c, tok, i)
				model = append(model, i)
			} else {
				v, ok := q.Dequeue(c, tok)
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				want := model[0]
				model = model[1:]
				if !ok || v != want {
					return false
				}
			}
		}
		if q.Len(c, tok) != len(model) {
			return false
		}
		for _, want := range model {
			v, ok := q.Dequeue(c, tok)
			if !ok || v != want {
				return false
			}
		}
		_, ok := q.Dequeue(c, tok)
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: isEmpty agrees with Len == 0 at every step.
func TestIsEmptyConsistencyProperty(t *testing.T) {
	s := pgas.NewSystem(pgas.Config{Locales: 1, Backend: comm.BackendNone})
	defer s.Shutdown()
	c := s.Ctx(0)
	em := epoch.NewEpochManager(c)
	f := func(ops []bool) bool {
		q := New[int](c, 0, em)
		tok := em.Register(c)
		defer tok.Unregister(c)
		n := 0
		for _, enq := range ops {
			if enq {
				q.Enqueue(c, tok, n)
				n++
			} else if _, ok := q.Dequeue(c, tok); ok {
				n--
			}
			if q.isEmpty(c, tok) != (n == 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
