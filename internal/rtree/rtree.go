// Package rtree implements an in-memory R-tree over axis-aligned rectangles,
// the spatial index the geographic DBMS uses to answer the window (bounding
// box) queries behind every map display in a Class set window. The variant is
// a classic Guttman R-tree with quadratic split.
//
// The tree maps rectangles to opaque integer identifiers (typically record
// IDs of geographic objects). It supports insertion, deletion, window search,
// point search and nearest-neighbour search. It is not safe for concurrent
// mutation; the database layer serializes writers and uses its own lock for
// readers.
package rtree

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// Defaults for node capacity. MinEntries must be at most MaxEntries/2.
const (
	DefaultMaxEntries = 16
	DefaultMinEntries = 4
)

// Item is an indexed entry: a bounding rectangle and the identifier of the
// object it covers.
type Item struct {
	Bounds geom.Rect
	ID     uint64
}

type node struct {
	leaf     bool
	bounds   geom.Rect
	children []*node // internal nodes
	items    []Item  // leaf nodes
}

// Tree is an R-tree. The zero value is not usable; call New.
type Tree struct {
	root       *node
	size       int
	maxEntries int
	minEntries int

	// path is scratch space reused across insertions: the root-to-parent
	// chain of the current insert, consulted when splits propagate upward.
	path []*node
}

// New returns an empty tree with the default node capacity.
func New() *Tree { return NewWithCapacity(DefaultMaxEntries, DefaultMinEntries) }

// NewWithCapacity returns an empty tree with the given node capacity. It
// panics if the capacities are inconsistent, since that is a programming
// error at construction time.
func NewWithCapacity(max, min int) *Tree {
	if max < 4 || min < 1 || min > max/2 {
		panic("rtree: invalid node capacity")
	}
	return &Tree{
		root:       &node{leaf: true, bounds: geom.EmptyRect},
		maxEntries: max,
		minEntries: min,
	}
}

// Len reports the number of indexed items.
func (t *Tree) Len() int { return t.size }

// Bounds returns the bounding rectangle of the whole tree (EmptyRect when
// the tree is empty).
func (t *Tree) Bounds() geom.Rect { return t.root.bounds }

// Insert adds an item. Duplicate (bounds, id) pairs are stored separately;
// Delete removes one matching entry at a time.
func (t *Tree) Insert(bounds geom.Rect, id uint64) {
	it := Item{Bounds: bounds, ID: id}
	leaf := t.chooseLeaf(t.root, it)
	leaf.items = append(leaf.items, it)
	leaf.bounds = leaf.bounds.Union(bounds)
	// chooseLeaf widened every node below the root on the path; splits
	// compute their halves' bounds and parents union them.
	t.root.bounds = t.root.bounds.Union(bounds)
	t.size++
	t.splitUpward(leaf)
}

func (t *Tree) chooseLeaf(n *node, it Item) *node {
	t.path = t.path[:0]
	cur := n
	for !cur.leaf {
		t.path = append(t.path, cur)
		best := cur.children[0]
		bestEnl := best.bounds.Enlargement(it.Bounds)
		for _, c := range cur.children[1:] {
			enl := c.bounds.Enlargement(it.Bounds)
			if enl < bestEnl || (enl == bestEnl && c.bounds.Area() < best.bounds.Area()) {
				best, bestEnl = c, enl
			}
		}
		best.bounds = best.bounds.Union(it.Bounds)
		cur = best
	}
	return cur
}

// splitUpward splits the leaf if over capacity and propagates splits to the
// root, using the recorded path.
func (t *Tree) splitUpward(leaf *node) {
	n := leaf
	for depth := len(t.path); ; depth-- {
		var over bool
		if n.leaf {
			over = len(n.items) > t.maxEntries
		} else {
			over = len(n.children) > t.maxEntries
		}
		if !over {
			return
		}
		left, right := t.split(n)
		if depth == 0 {
			// n is the root: grow the tree.
			t.root = &node{
				leaf:     false,
				bounds:   left.bounds.Union(right.bounds),
				children: []*node{left, right},
			}
			return
		}
		parent := t.path[depth-1]
		// Replace n with left, append right.
		for i, c := range parent.children {
			if c == n {
				parent.children[i] = left
				break
			}
		}
		parent.children = append(parent.children, right)
		parent.bounds = parent.bounds.Union(left.bounds).Union(right.bounds)
		n = parent
	}
}

// split divides an over-full node into two using Guttman's quadratic method.
func (t *Tree) split(n *node) (*node, *node) {
	if n.leaf {
		seedsA, seedsB := pickSeedsItems(n.items)
		a := &node{leaf: true, bounds: n.items[seedsA].Bounds, items: []Item{n.items[seedsA]}}
		b := &node{leaf: true, bounds: n.items[seedsB].Bounds, items: []Item{n.items[seedsB]}}
		rest := make([]Item, 0, len(n.items)-2)
		for i, it := range n.items {
			if i != seedsA && i != seedsB {
				rest = append(rest, it)
			}
		}
		for len(rest) > 0 {
			// Force-assign when one group must take everything left.
			if len(a.items)+len(rest) == t.minEntries {
				for _, it := range rest {
					a.items = append(a.items, it)
					a.bounds = a.bounds.Union(it.Bounds)
				}
				break
			}
			if len(b.items)+len(rest) == t.minEntries {
				for _, it := range rest {
					b.items = append(b.items, it)
					b.bounds = b.bounds.Union(it.Bounds)
				}
				break
			}
			idx, toA := pickNextItem(rest, a.bounds, b.bounds)
			it := rest[idx]
			rest[idx] = rest[len(rest)-1]
			rest = rest[:len(rest)-1]
			if toA {
				a.items = append(a.items, it)
				a.bounds = a.bounds.Union(it.Bounds)
			} else {
				b.items = append(b.items, it)
				b.bounds = b.bounds.Union(it.Bounds)
			}
		}
		return a, b
	}
	seedsA, seedsB := pickSeedsNodes(n.children)
	a := &node{bounds: n.children[seedsA].bounds, children: []*node{n.children[seedsA]}}
	b := &node{bounds: n.children[seedsB].bounds, children: []*node{n.children[seedsB]}}
	rest := make([]*node, 0, len(n.children)-2)
	for i, c := range n.children {
		if i != seedsA && i != seedsB {
			rest = append(rest, c)
		}
	}
	for len(rest) > 0 {
		if len(a.children)+len(rest) == t.minEntries {
			for _, c := range rest {
				a.children = append(a.children, c)
				a.bounds = a.bounds.Union(c.bounds)
			}
			break
		}
		if len(b.children)+len(rest) == t.minEntries {
			for _, c := range rest {
				b.children = append(b.children, c)
				b.bounds = b.bounds.Union(c.bounds)
			}
			break
		}
		idx, toA := pickNextNode(rest, a.bounds, b.bounds)
		c := rest[idx]
		rest[idx] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
		if toA {
			a.children = append(a.children, c)
			a.bounds = a.bounds.Union(c.bounds)
		} else {
			b.children = append(b.children, c)
			b.bounds = b.bounds.Union(c.bounds)
		}
	}
	return a, b
}

func pickSeedsItems(items []Item) (int, int) {
	worst, ia, ib := -1.0, 0, 1
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			d := items[i].Bounds.Union(items[j].Bounds).Area() -
				items[i].Bounds.Area() - items[j].Bounds.Area()
			if d > worst {
				worst, ia, ib = d, i, j
			}
		}
	}
	return ia, ib
}

func pickSeedsNodes(nodes []*node) (int, int) {
	worst, ia, ib := -1.0, 0, 1
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			d := nodes[i].bounds.Union(nodes[j].bounds).Area() -
				nodes[i].bounds.Area() - nodes[j].bounds.Area()
			if d > worst {
				worst, ia, ib = d, i, j
			}
		}
	}
	return ia, ib
}

func pickNextItem(rest []Item, a, b geom.Rect) (int, bool) {
	bestIdx, bestDiff, toA := 0, -1.0, true
	for i, it := range rest {
		da := a.Enlargement(it.Bounds)
		db := b.Enlargement(it.Bounds)
		diff := math.Abs(da - db)
		if diff > bestDiff {
			bestDiff, bestIdx = diff, i
			toA = da < db || (da == db && a.Area() < b.Area())
		}
	}
	return bestIdx, toA
}

func pickNextNode(rest []*node, a, b geom.Rect) (int, bool) {
	bestIdx, bestDiff, toA := 0, -1.0, true
	for i, c := range rest {
		da := a.Enlargement(c.bounds)
		db := b.Enlargement(c.bounds)
		diff := math.Abs(da - db)
		if diff > bestDiff {
			bestDiff, bestIdx = diff, i
			toA = da < db || (da == db && a.Area() < b.Area())
		}
	}
	return bestIdx, toA
}

// Search appends to dst the IDs of all items whose bounds intersect window,
// and returns the extended slice. Pass nil to allocate.
func (t *Tree) Search(window geom.Rect, dst []uint64) []uint64 {
	return searchNode(t.root, window, dst)
}

func searchNode(n *node, window geom.Rect, dst []uint64) []uint64 {
	if !n.bounds.Intersects(window) {
		return dst
	}
	if n.leaf {
		for _, it := range n.items {
			if it.Bounds.Intersects(window) {
				dst = append(dst, it.ID)
			}
		}
		return dst
	}
	for _, c := range n.children {
		dst = searchNode(c, window, dst)
	}
	return dst
}

// SearchItems is Search but yields the full items, window-filtered.
func (t *Tree) SearchItems(window geom.Rect, dst []Item) []Item {
	return searchItemsNode(t.root, window, dst)
}

func searchItemsNode(n *node, window geom.Rect, dst []Item) []Item {
	if !n.bounds.Intersects(window) {
		return dst
	}
	if n.leaf {
		for _, it := range n.items {
			if it.Bounds.Intersects(window) {
				dst = append(dst, it)
			}
		}
		return dst
	}
	for _, c := range n.children {
		dst = searchItemsNode(c, window, dst)
	}
	return dst
}

// Visit walks every item whose bounds intersect window, stopping early if
// fn returns false.
func (t *Tree) Visit(window geom.Rect, fn func(Item) bool) {
	visitNode(t.root, window, fn)
}

func visitNode(n *node, window geom.Rect, fn func(Item) bool) bool {
	if !n.bounds.Intersects(window) {
		return true
	}
	if n.leaf {
		for _, it := range n.items {
			if it.Bounds.Intersects(window) && !fn(it) {
				return false
			}
		}
		return true
	}
	for _, c := range n.children {
		if !visitNode(c, window, fn) {
			return false
		}
	}
	return true
}

// Delete removes one item matching (bounds, id) exactly. It reports whether
// an item was removed. Underflowing leaves are dissolved and their remaining
// entries reinserted (Guttman's condense-tree).
func (t *Tree) Delete(bounds geom.Rect, id uint64) bool {
	leaf, idx := findLeaf(t.root, bounds, id)
	if leaf == nil {
		return false
	}
	leaf.items = append(leaf.items[:idx], leaf.items[idx+1:]...)
	t.size--
	t.condense(leaf)
	return true
}

func findLeaf(n *node, bounds geom.Rect, id uint64) (*node, int) {
	if !n.bounds.ContainsRect(bounds) && !(n.bounds == bounds) && !n.bounds.Intersects(bounds) {
		return nil, -1
	}
	if n.leaf {
		for i, it := range n.items {
			if it.ID == id && it.Bounds == bounds {
				return n, i
			}
		}
		return nil, -1
	}
	for _, c := range n.children {
		if c.bounds.Intersects(bounds) {
			if leaf, i := findLeaf(c, bounds, id); leaf != nil {
				return leaf, i
			}
		}
	}
	return nil, -1
}

// condense rebuilds bounds along the delete path and reinserts orphaned
// entries from dissolved nodes. For simplicity the delete path is recomputed
// by a full walk; deletes are rare in the browsing workloads this system
// targets.
func (t *Tree) condense(_ *node) {
	var orphans []Item
	t.root = condenseNode(t.root, t.minEntries, &orphans)
	if t.root == nil {
		t.root = &node{leaf: true, bounds: geom.EmptyRect}
	}
	// Collapse a root with a single internal child.
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	t.size -= len(orphans)
	for _, it := range orphans {
		t.Insert(it.Bounds, it.ID)
	}
}

// condenseNode recomputes bounds bottom-up, dissolving nodes that fell below
// the minimum occupancy. It returns nil when the node dissolves.
func condenseNode(n *node, min int, orphans *[]Item) *node {
	if n.leaf {
		if len(n.items) == 0 {
			return nil
		}
		n.bounds = geom.EmptyRect
		for _, it := range n.items {
			n.bounds = n.bounds.Union(it.Bounds)
		}
		return n
	}
	kept := n.children[:0]
	for _, c := range n.children {
		if cc := condenseNode(c, min, orphans); cc != nil {
			if cc.leaf && len(cc.items) < min {
				*orphans = append(*orphans, cc.items...)
				continue
			}
			kept = append(kept, cc)
		}
	}
	n.children = kept
	if len(n.children) == 0 {
		return nil
	}
	if len(n.children) < 2 {
		// An internal node with a single child would break uniform leaf
		// depth if promoted; dissolve it and reinsert its items instead.
		collectItems(n, orphans)
		return nil
	}
	n.bounds = geom.EmptyRect
	for _, c := range n.children {
		n.bounds = n.bounds.Union(c.bounds)
	}
	return n
}

func collectItems(n *node, orphans *[]Item) {
	if n.leaf {
		*orphans = append(*orphans, n.items...)
		return
	}
	for _, c := range n.children {
		collectItems(c, orphans)
	}
}

// Nearest returns the k item IDs nearest to p by bounding-rectangle distance,
// closest first. It returns fewer than k when the tree is smaller.
func (t *Tree) Nearest(p geom.Point, k int) []uint64 {
	if k <= 0 || t.size == 0 {
		return nil
	}
	type cand struct {
		it   Item
		dist float64
	}
	var best []cand
	worst := math.Inf(1)
	var walk func(n *node)
	walk = func(n *node) {
		if rectPointDist(n.bounds, p) > worst && len(best) >= k {
			return
		}
		if n.leaf {
			for _, it := range n.items {
				d := rectPointDist(it.Bounds, p)
				if len(best) < k || d < worst {
					best = append(best, cand{it, d})
					sort.Slice(best, func(i, j int) bool { return best[i].dist < best[j].dist })
					if len(best) > k {
						best = best[:k]
					}
					if len(best) == k {
						worst = best[k-1].dist
					}
				}
			}
			return
		}
		// Visit children nearest-first for better pruning.
		kids := append([]*node(nil), n.children...)
		sort.Slice(kids, func(i, j int) bool {
			return rectPointDist(kids[i].bounds, p) < rectPointDist(kids[j].bounds, p)
		})
		for _, c := range kids {
			walk(c)
		}
	}
	walk(t.root)
	out := make([]uint64, len(best))
	for i, c := range best {
		out[i] = c.it.ID
	}
	return out
}

func rectPointDist(r geom.Rect, p geom.Point) float64 {
	if r.IsEmpty() {
		return math.Inf(1)
	}
	dx := math.Max(0, math.Max(r.Min.X-p.X, p.X-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-p.Y, p.Y-r.Max.Y))
	return math.Hypot(dx, dy)
}

// Depth returns the height of the tree (1 for a single leaf root). Exposed
// for tests and the gisbench structural report.
func (t *Tree) Depth() int {
	d := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		d++
	}
	return d
}

// CheckInvariants walks the tree verifying structural invariants: bounds
// cover children, occupancy limits hold (except the root), and leaf depth is
// uniform. It returns a descriptive string for the first violation, or "".
// Used by property tests.
func (t *Tree) CheckInvariants() string {
	leafDepth := -1
	var walk func(n *node, depth int, isRoot bool) string
	walk = func(n *node, depth int, isRoot bool) string {
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return "leaves at unequal depth"
			}
			if !isRoot && (len(n.items) < t.minEntries || len(n.items) > t.maxEntries) {
				return "leaf occupancy out of bounds"
			}
			b := geom.EmptyRect
			for _, it := range n.items {
				b = b.Union(it.Bounds)
			}
			if b != n.bounds && !(b.IsEmpty() && n.bounds.IsEmpty()) {
				return "leaf bounds stale"
			}
			return ""
		}
		if !isRoot && (len(n.children) < 2 || len(n.children) > t.maxEntries) {
			return "internal occupancy out of bounds"
		}
		b := geom.EmptyRect
		for _, c := range n.children {
			if msg := walk(c, depth+1, false); msg != "" {
				return msg
			}
			b = b.Union(c.bounds)
		}
		if b != n.bounds {
			return "internal bounds stale"
		}
		return ""
	}
	return walk(t.root, 0, true)
}
