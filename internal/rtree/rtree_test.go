package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

func pt(x, y float64) geom.Rect { return geom.R(x, y, x, y) }

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatal("new tree not empty")
	}
	if got := tr.Search(geom.R(0, 0, 100, 100), nil); len(got) != 0 {
		t.Fatalf("search on empty tree = %v", got)
	}
	if !tr.Bounds().IsEmpty() {
		t.Fatal("empty tree bounds should be empty")
	}
	if tr.Nearest(geom.Pt(0, 0), 3) != nil {
		t.Fatal("nearest on empty tree")
	}
}

func TestInsertSearchSmall(t *testing.T) {
	tr := New()
	tr.Insert(pt(1, 1), 1)
	tr.Insert(pt(5, 5), 2)
	tr.Insert(pt(9, 9), 3)
	got := tr.Search(geom.R(0, 0, 6, 6), nil)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("search = %v", got)
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d", tr.Len())
	}
}

func TestBoundaryIntersection(t *testing.T) {
	tr := New()
	tr.Insert(geom.R(0, 0, 2, 2), 1)
	// Window touching the item edge must find it.
	if got := tr.Search(geom.R(2, 2, 4, 4), nil); len(got) != 1 {
		t.Fatalf("edge touch search = %v", got)
	}
	if got := tr.Search(geom.R(2.001, 2.001, 4, 4), nil); len(got) != 0 {
		t.Fatalf("disjoint search = %v", got)
	}
}

func TestLargeInsertAndSearchMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := New()
	var items []Item
	for i := 0; i < 3000; i++ {
		r := geom.R(rng.Float64()*1000, rng.Float64()*1000,
			rng.Float64()*1000, rng.Float64()*1000)
		// Mix of points and small rects.
		if i%3 == 0 {
			r = pt(rng.Float64()*1000, rng.Float64()*1000)
		} else {
			r = geom.R(r.Min.X, r.Min.Y, r.Min.X+rng.Float64()*20, r.Min.Y+rng.Float64()*20)
		}
		tr.Insert(r, uint64(i))
		items = append(items, Item{Bounds: r, ID: uint64(i)})
	}
	if msg := tr.CheckInvariants(); msg != "" {
		t.Fatalf("invariant violated after inserts: %s", msg)
	}
	for q := 0; q < 50; q++ {
		w := geom.R(rng.Float64()*1000, rng.Float64()*1000,
			rng.Float64()*1000, rng.Float64()*1000)
		got := tr.Search(w, nil)
		var want []uint64
		for _, it := range items {
			if it.Bounds.Intersects(w) {
				want = append(want, it.ID)
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d hits, want %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: hit %d = %d, want %d", q, i, got[i], want[i])
			}
		}
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Insert(pt(float64(i), float64(i)), uint64(i))
	}
	if !tr.Delete(pt(50, 50), 50) {
		t.Fatal("delete of existing item failed")
	}
	if tr.Delete(pt(50, 50), 50) {
		t.Fatal("second delete should fail")
	}
	if tr.Delete(pt(51, 51), 999) {
		t.Fatal("delete with wrong id should fail")
	}
	if tr.Len() != 99 {
		t.Fatalf("len after delete = %d", tr.Len())
	}
	if got := tr.Search(pt(50, 50), nil); len(got) != 0 {
		t.Fatalf("deleted item still found: %v", got)
	}
	if msg := tr.CheckInvariants(); msg != "" {
		t.Fatalf("invariant violated after delete: %s", msg)
	}
}

func TestDeleteAll(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := New()
	type rec struct {
		r  geom.Rect
		id uint64
	}
	var recs []rec
	for i := 0; i < 500; i++ {
		r := pt(rng.Float64()*100, rng.Float64()*100)
		recs = append(recs, rec{r, uint64(i)})
		tr.Insert(r, uint64(i))
	}
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	for i, rc := range recs {
		if !tr.Delete(rc.r, rc.id) {
			t.Fatalf("delete %d failed", rc.id)
		}
		if tr.Len() != len(recs)-i-1 {
			t.Fatalf("len = %d after %d deletes", tr.Len(), i+1)
		}
		if i%50 == 0 {
			if msg := tr.CheckInvariants(); msg != "" {
				t.Fatalf("invariant after %d deletes: %s", i+1, msg)
			}
		}
	}
	if tr.Len() != 0 || !tr.Bounds().IsEmpty() {
		t.Fatalf("tree not empty after deleting everything: len=%d", tr.Len())
	}
	// Tree must be reusable after full drain.
	tr.Insert(pt(1, 1), 1)
	if got := tr.Search(pt(1, 1), nil); len(got) != 1 {
		t.Fatal("reuse after drain failed")
	}
}

func TestInterleavedInsertDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := New()
	live := map[uint64]geom.Rect{}
	next := uint64(0)
	for step := 0; step < 4000; step++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			r := geom.R(rng.Float64()*500, rng.Float64()*500,
				rng.Float64()*500, rng.Float64()*500)
			tr.Insert(r, next)
			live[next] = r
			next++
		} else {
			// Delete a random live item.
			var id uint64
			for k := range live {
				id = k
				break
			}
			if !tr.Delete(live[id], id) {
				t.Fatalf("step %d: delete %d failed", step, id)
			}
			delete(live, id)
		}
	}
	if tr.Len() != len(live) {
		t.Fatalf("len = %d, want %d", tr.Len(), len(live))
	}
	if msg := tr.CheckInvariants(); msg != "" {
		t.Fatalf("invariant: %s", msg)
	}
	got := tr.Search(tr.Bounds(), nil)
	if len(got) != len(live) {
		t.Fatalf("full search = %d hits, want %d", len(got), len(live))
	}
	for _, id := range got {
		if _, ok := live[id]; !ok {
			t.Fatalf("ghost id %d", id)
		}
	}
}

// TestBoundsExactAfterEveryOp pins incremental bounds maintenance: after
// every insert and delete of a seeded mix, each node's bounds are exactly
// the union of its entries, the root's included.
func TestBoundsExactAfterEveryOp(t *testing.T) {
	for _, c := range []struct{ max, min int }{{4, 2}, {16, 4}, {64, 32}} {
		rng := rand.New(rand.NewSource(int64(c.max)))
		tr := NewWithCapacity(c.max, c.min)
		var live []Item
		for op := 0; op < 5000; op++ {
			if len(live) == 0 || rng.Float64() < 0.6 {
				it := Item{ID: uint64(op), Bounds: geom.R(rng.Float64()*1000, rng.Float64()*1000,
					rng.Float64()*1000, rng.Float64()*1000)}
				tr.Insert(it.Bounds, it.ID)
				live = append(live, it)
			} else {
				i := rng.Intn(len(live))
				if !tr.Delete(live[i].Bounds, live[i].ID) {
					t.Fatalf("cap (%d,%d) op %d: delete %d failed", c.max, c.min, op, live[i].ID)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if msg := tr.CheckInvariants(); msg != "" {
				t.Fatalf("cap (%d,%d) op %d: %s", c.max, c.min, op, msg)
			}
		}
		if tr.Len() != len(live) {
			t.Fatalf("cap (%d,%d): len = %d, want %d", c.max, c.min, tr.Len(), len(live))
		}
	}
}

func TestNearest(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Insert(pt(float64(i), 0), uint64(i))
	}
	got := tr.Nearest(geom.Pt(10.2, 0), 3)
	if len(got) != 3 {
		t.Fatalf("nearest count = %d", len(got))
	}
	if got[0] != 10 {
		t.Fatalf("nearest[0] = %d, want 10", got[0])
	}
	want := map[uint64]bool{10: true, 11: true, 9: true}
	for _, id := range got {
		if !want[id] {
			t.Fatalf("unexpected neighbour %d in %v", id, got)
		}
	}
	// k larger than tree size.
	small := New()
	small.Insert(pt(1, 1), 1)
	if got := small.Nearest(geom.Pt(0, 0), 5); len(got) != 1 {
		t.Fatalf("k>size nearest = %v", got)
	}
}

func TestNearestMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := New()
	var pts []geom.Point
	for i := 0; i < 800; i++ {
		p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		pts = append(pts, p)
		tr.Insert(p.Bounds(), uint64(i))
	}
	for q := 0; q < 30; q++ {
		query := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		got := tr.Nearest(query, 5)
		idx := make([]int, len(pts))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool {
			return pts[idx[i]].DistanceTo(query) < pts[idx[j]].DistanceTo(query)
		})
		for i := 0; i < 5; i++ {
			if got[i] != uint64(idx[i]) {
				// Allow ties by distance.
				if pts[got[i]].DistanceTo(query) != pts[idx[i]].DistanceTo(query) {
					t.Fatalf("query %d rank %d: got %d (d=%v), want %d (d=%v)",
						q, i, got[i], pts[got[i]].DistanceTo(query),
						idx[i], pts[idx[i]].DistanceTo(query))
				}
			}
		}
	}
}

func TestVisitEarlyStop(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Insert(pt(float64(i), 0), uint64(i))
	}
	count := 0
	tr.Visit(geom.R(0, -1, 200, 1), func(Item) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("visit did not stop early: %d", count)
	}
}

func TestSearchItems(t *testing.T) {
	tr := New()
	tr.Insert(geom.R(0, 0, 1, 1), 7)
	items := tr.SearchItems(geom.R(0, 0, 2, 2), nil)
	if len(items) != 1 || items[0].ID != 7 || items[0].Bounds != geom.R(0, 0, 1, 1) {
		t.Fatalf("SearchItems = %+v", items)
	}
}

func TestCapacityValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid capacity should panic")
		}
	}()
	NewWithCapacity(8, 5) // min > max/2
}

func TestCustomCapacity(t *testing.T) {
	for _, max := range []int{4, 8, 32, 64} {
		tr := NewWithCapacity(max, max/2)
		for i := 0; i < 1000; i++ {
			tr.Insert(pt(float64(i%97), float64(i%89)), uint64(i))
		}
		if msg := tr.CheckInvariants(); msg != "" {
			t.Fatalf("max=%d: %s", max, msg)
		}
		if got := tr.Search(tr.Bounds(), nil); len(got) != 1000 {
			t.Fatalf("max=%d: full search = %d", max, len(got))
		}
	}
}

func TestDuplicateEntries(t *testing.T) {
	tr := New()
	r := geom.R(1, 1, 2, 2)
	tr.Insert(r, 1)
	tr.Insert(r, 1)
	if tr.Len() != 2 {
		t.Fatalf("len = %d", tr.Len())
	}
	if !tr.Delete(r, 1) || tr.Len() != 1 {
		t.Fatal("first duplicate delete")
	}
	if got := tr.Search(r, nil); len(got) != 1 {
		t.Fatalf("one duplicate should remain: %v", got)
	}
	if !tr.Delete(r, 1) || tr.Len() != 0 {
		t.Fatal("second duplicate delete")
	}
}

func TestDepthGrows(t *testing.T) {
	tr := NewWithCapacity(4, 2)
	if tr.Depth() != 1 {
		t.Fatal("empty tree depth")
	}
	for i := 0; i < 200; i++ {
		tr.Insert(pt(float64(i), float64(i*i%83)), uint64(i))
	}
	if tr.Depth() < 3 {
		t.Fatalf("depth = %d, expected deeper tree at fanout 4", tr.Depth())
	}
}
