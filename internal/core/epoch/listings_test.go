package epoch

import (
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/core/atomics"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

// Conformance tests that transliterate each of the paper's code
// listings onto this library's API, so a reader can line the two up.

// Listing 1 — LockFreeStack.push using AtomicObject:
//
//	proc LockFreeStack.push(newObj : T) {
//	  var node = new unmanaged Node(newObj);
//	  do {
//	    var oldHead = head.readABA();
//	    node.next = oldHead.getObject();
//	  } while(!head.compareAndSwapABA(oldHead, node));
//	}
func TestListing1Push(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		type Node struct {
			val  int
			next gas.Addr
		}
		head := atomics.New(c, 0, atomics.Options{ABA: true})

		push := func(newObj int) {
			n := &Node{val: newObj}
			node := c.Alloc(n)
			for {
				oldHead := head.ReadABA(c)
				n.next = oldHead.Object()
				if head.CompareAndSwapABA(c, oldHead, node) {
					return
				}
			}
		}
		for i := 0; i < 5; i++ {
			push(i)
		}
		// LIFO check.
		cur := head.ReadABA(c).Object()
		for want := 4; want >= 0; want-- {
			n := pgas.MustDeref[*Node](c, cur)
			if n.val != want {
				t.Fatalf("stack order: got %d want %d", n.val, want)
			}
			cur = n.next
		}
	})
}

// Listing 2 — the wait-free limbo list:
//
//	proc push(obj) { var node = recycleNode(obj);
//	                 var oldHead = _head.exchange(node);
//	                 node.next = oldHead; }
//	proc pop() { return _head.exchange(nil); }
func TestListing2LimboList(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		l := newLimbo(c)
		objs := []gas.Addr{c.Alloc(&payload{v: 1}), c.Alloc(&payload{v: 2})}
		for _, o := range objs {
			l.Push(c, o) // a fresh block from the pool + exchange + next, verbatim
		}
		head := l.PopAll() // one exchange detaches everything
		seen := 0
		l.Release(c, head, func(gas.Addr) { seen++ })
		if seen != 2 {
			t.Fatalf("popped %d nodes", seen)
		}
	})
}

// Listing 3 — EpochManager usage, serial and forall forms:
//
//	var em = new EpochManager();
//	var tok = em.register(); tok.pin(); tok.unpin(); tok.unregister();
//	forall x in X with (var tok = em.register()) {
//	  tok.pin(); tok.deferDelete(x); tok.unpin();
//	} // automatic unregister
//	em.clear();
func TestListing3Usage(t *testing.T) {
	s := newTestSystem(t, 4, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := NewEpochManager(c)

		// Serial and shared memory.
		tok := em.Register(c)
		tok.Pin(c)
		tok.Unpin(c)
		tok.Unregister(c)

		// Parallel and distributed (forall with task intents).
		const n = 200
		X := make([]gas.Addr, n)
		for i := range X {
			X[i] = c.AllocOn(i%4, &payload{v: i})
		}
		pgas.ForallCyclic(c, n, 2,
			func(tc *pgas.Ctx) *Token { return em.Register(tc) },
			func(tc *pgas.Ctx, tok *Token, i int) {
				tok.Pin(tc)
				tok.DeferDelete(tc, X[i])
				tok.Unpin(tc)
			},
			func(tc *pgas.Ctx, tok *Token) { tok.Unregister(tc) },
		)
		em.Clear(c) // reclaim everything at once

		if st := em.Stats(c); st.Reclaimed != n {
			t.Fatalf("reclaimed %d of %d", st.Reclaimed, n)
		}
	})
}

// Listing 4 — tryReclaim's observable contract, step by step: the
// local flag gate, the global flag gate, the all-locale scan, the
// epoch advance (e % 4) + 1 — four generations where the listing keeps
// three — and scatter-based bulk deletion are each asserted through
// the public API (this test pins the port's behaviour).
func TestListing4Contract(t *testing.T) {
	s := newTestSystem(t, 3, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := NewEpochManager(c)

		// (e % 4) + 1 cycling from the initial epoch 1.
		want := []uint64{2, 3, 4, 1, 2}
		for _, w := range want {
			em.TryReclaim(c)
			if got := em.readGlobal(c); got != w {
				t.Fatalf("epoch = %d, want %d", got, w)
			}
		}

		// Scatter + bulk delete: defer objects on every locale, then a
		// run of three tryReclaims frees them on their owners.
		tok := em.Register(c)
		tok.Pin(c)
		var objs []gas.Addr
		for l := 0; l < 3; l++ {
			for i := 0; i < 10; i++ {
				o := c.AllocOn(l, &payload{v: i})
				tok.DeferDelete(c, o)
				objs = append(objs, o)
			}
		}
		tok.Unpin(c)
		em.TryReclaim(c)
		em.TryReclaim(c)
		em.TryReclaim(c)
		for _, o := range objs {
			if _, ok := pgas.Deref[*payload](c, o); ok {
				t.Fatalf("object %v not reclaimed after three advances", o)
			}
		}
	})
}

// Listing 5 — the microbenchmark loop (the Figure 4–6 workload):
//
//	var objsDom = {0..#numObjects} dmapped Cyclic(startIdx=0);
//	forall obj in objs with (var tok = manager.register(), var M : int) {
//	  tok.pin(); tok.deferDelete(obj); tok.unpin(); M += 1;
//	  if M % perIteration == 0 { tok.tryReclaim(); }
//	}
//	manager.clear();
func TestListing5Microbenchmark(t *testing.T) {
	s := newTestSystem(t, 4, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		manager := NewEpochManager(c)
		const numObjects = 512
		const perIteration = 64
		objs := make([]gas.Addr, numObjects)
		for i := range objs {
			objs[i] = c.AllocOn(c.RandIntn(4), &payload{v: i}) // randomizeObjs
		}
		type intents struct {
			tok *Token
			M   int
		}
		pgas.ForallCyclic(c, numObjects, 2,
			func(tc *pgas.Ctx) *intents { return &intents{tok: manager.Register(tc)} },
			func(tc *pgas.Ctx, p *intents, i int) {
				p.tok.Pin(tc)
				p.tok.DeferDelete(tc, objs[i])
				p.tok.Unpin(tc)
				p.M++
				if p.M%perIteration == 0 {
					p.tok.TryReclaim(tc)
				}
			},
			func(tc *pgas.Ctx, p *intents) { p.tok.Unregister(tc) },
		)
		manager.Clear(c)

		st := manager.Stats(c)
		if st.Deferred != numObjects || st.Reclaimed != numObjects {
			t.Fatalf("stats = %+v", st)
		}
		if uaf := s.HeapStats().UAFLoads; uaf != 0 {
			t.Fatalf("%d UAF loads", uaf)
		}
	})
}
