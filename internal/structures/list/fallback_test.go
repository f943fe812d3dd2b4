package list

import (
	"slices"
	"testing"

	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
)

// The marker's direct unlink loses its CAS when the window it holds went
// stale between its search and its mark. The storms reach that by
// scheduling; here task A is stepped by hand through the two halves of
// its operation with task B run to completion in between, so the direct
// CAS loses exactly once per case and the traversal past the key is the
// only thing left to unlink A's node.
func TestListUnlinkFallback(t *testing.T) {
	cases := []struct {
		name string
		keys []uint64
		// a runs task A's operation on key 7, calling between after A has
		// fixed its window and before it marks.
		a func(l *List[int], c *pgas.Ctx, tok *epoch.Token, between func())
		// b is the whole of task B's operation.
		b func(l *List[int], c *pgas.Ctx, tok *epoch.Token)
		// wantKeys and the stats are the state after both.
		wantKeys []uint64
		want     Stats
	}{
		{
			// A links its replacement N_A in front of the old node; B
			// replaces N_A in turn (links N_B, marks N_A, unlinks it).
			// A's predecessor word is N_A's — marked now, so the direct
			// CAS loses — and the old node sits behind the unmarked N_B
			// of the same key, where a search that stops at 7 never looks.
			name: "upsert superseded before it unlinks",
			keys: []uint64{7},
			a: func(l *List[int], c *pgas.Ctx, tok *epoch.Token, between func()) {
				pred, curr, cn, next := l.search(c, tok, 7, false)
				addr, nn := l.newNode(c, 7, 100, curr)
				if !pred.CompareAndSwap(c, pack(curr, false), pack(addr, false)) {
					t.Fatal("A's link lost on a quiet list")
				}
				l.inserts.Add(1)
				between()
				if !l.deleteNode(c, tok, &nn.next, curr, cn, next) {
					t.Fatal("A did not mark the node it superseded")
				}
			},
			b:        func(l *List[int], c *pgas.Ctx, tok *epoch.Token) { l.Upsert(c, tok, 7, 200) },
			wantKeys: []uint64{7},
			want:     Stats{Inserts: 3, Removes: 2, Unlinks: 2},
		},
		{
			// A holds node 5's successor word as the predecessor of 7; B
			// removes 5, which marks that word.
			name: "remove whose predecessor was removed",
			keys: []uint64{5, 7},
			a: func(l *List[int], c *pgas.Ctx, tok *epoch.Token, between func()) {
				pred, curr, cn, next := l.search(c, tok, 7, false)
				between()
				if !l.deleteNode(c, tok, pred, curr, cn, next) {
					t.Fatal("A did not mark key 7")
				}
			},
			b:        func(l *List[int], c *pgas.Ctx, tok *epoch.Token) { l.Remove(c, tok, 5) },
			wantKeys: nil,
			want:     Stats{Inserts: 2, Removes: 2, Unlinks: 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, l, tokA, cA := setup(t, 2)
			for _, k := range tc.keys {
				l.Insert(cA, tokA, k, int(k))
			}
			cB := s.Ctx(1)
			tokB := l.Manager().Register(cB)

			before := s.Counters().Snapshot()
			tokA.Pin(cA)
			tc.a(l, cA, tokA, func() { tc.b(l, cB, tokB) })
			tokA.Unpin(cA)
			d := s.Counters().Snapshot().Sub(before)

			if d.CASRetries != 1 {
				t.Fatalf("%d CASes lost, want exactly A's direct unlink", d.CASRetries)
			}
			if got := l.Stats(); got != tc.want {
				t.Fatalf("stats = %+v, want %+v", got, tc.want)
			}
			assertNoZombies(t, cA, l)
			if got := l.Keys(cA, tokA); !slices.Equal(got, tc.wantKeys) {
				t.Fatalf("keys = %v, want %v", got, tc.wantKeys)
			}
			if v, ok := l.Get(cA, tokA, 7); ok != slices.Contains(tc.wantKeys, 7) || (ok && v != 200) {
				t.Fatalf("get(7) = (%d, %v)", v, ok)
			}
			l.Manager().Clear(cA)
			if st := l.Manager().Stats(cA); st.Deferred != tc.want.Unlinks || st.Reclaimed != st.Deferred {
				t.Fatalf("epoch books: %+v, want %d deferred and reclaimed", st, tc.want.Unlinks)
			}
			if uaf := s.HeapStats().UAFLoads; uaf != 0 {
				t.Fatalf("%d UAF loads", uaf)
			}
		})
	}
}
