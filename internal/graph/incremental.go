package graph

import (
	"fmt"
	"sort"

	"ptffedrec/internal/par"
	"ptffedrec/internal/tensor"
)

// Incremental maintains the normalized bipartite adjacency under per-round
// deltas, so a round that changes k users costs O(k users + affected items)
// instead of the O(all users, all edges) full rebuild.
//
// The maintained state mirrors exactly what the full build derives from the
// edge list:
//
//   - userDeg/itemDeg — the weighted degree vectors, recomputed (never
//     adjusted by +=delta) so the float accumulation order matches the full
//     build's AddEdge sequence: user degrees sum a user's edges in fill
//     order; item degrees sum contributions in (user ascending, fill order
//     within user) — the global AddEdge order of the full rebuild.
//   - rowItems/rowVals — each user's CSR row: distinct items ascending with
//     the duplicate-summed normalized value, matching NewCSRPar's stable
//     column sort + left-to-right duplicate summation.
//   - post — per-item postings: every raw edge contribution touching the
//     item in full-build accumulation order, each carrying the weight and
//     the position of its (user,item) group inside the user's row, so a
//     degree change at the item patches the mirrored user-row value in
//     place.
//   - itemRowUsers/itemRowVals — each item's CSR row (users ascending),
//     the mirror of rowVals, kept so adjacency assembly is a pure copy.
//
// Values are computed with the same normVal expression as the full triplet
// build and summed per duplicate group left-to-right, so both adjacency
// variants assembled from this state are bitwise-identical to
// NormalizedAdjPar / NormalizedAdjSelfPar on the equivalent Bipartite — at
// every worker count. The engine requires strictly positive edge weights
// (the full build's zero-degree skip would otherwise make row membership
// data-dependent); Commit panics if a staged weight violates that. The
// federated server never stages one: its config rejects GraphThreshold <= 0.
type Incremental struct {
	numUsers, numItems int

	userDeg []float64
	itemDeg []float64

	rowItems [][]int32
	rowVals  [][]float64

	post         [][]incPosting
	itemRowUsers [][]int32
	itemRowVals  [][]float64

	// Staging buffers: the users replaced this round (ascending) with their
	// new edge sets flattened in fill order (stagedOff offsets per user).
	stagedUsers []int32
	stagedOff   []int32
	stagedItems []int32
	stagedW     []float64
	badWeight   bool

	// Commit scratch. itemDelta[v] holds the staged groups landing on item v
	// (users ascending, truncated lazily via the itemGen stamp); affected is
	// the set of items whose degree may change this commit. The generation
	// stamps avoid O(universe) clearing per commit.
	itemDelta [][]incDelta
	affected  []int32
	itemGen   []uint64
	userGen   []uint64
	gen       uint64
}

// incPosting is one raw edge contribution to an item, in full-build
// accumulation order: user ascending, fill order within a user. pos is the
// index of the contribution's (user,item) group in the user's row, so item
// degree changes can patch the mirrored row value in place.
type incPosting struct {
	user int32
	pos  int32
	w    float64
}

// incDelta references one staged (user,item) group: pos is the group's index
// in the user's new row, off/n locate the group's weights (fill order) in the
// staged slab.
type incDelta struct {
	user int32
	pos  int32
	off  int32
	n    int32
}

// NewIncremental returns an empty engine over the given universe. The empty
// state is the full build of an empty store, so the first Commit (which sees
// every stored user as dirty) bootstraps it without a special case.
func NewIncremental(numUsers, numItems int) *Incremental {
	return &Incremental{
		numUsers:     numUsers,
		numItems:     numItems,
		userDeg:      make([]float64, numUsers),
		itemDeg:      make([]float64, numItems),
		rowItems:     make([][]int32, numUsers),
		rowVals:      make([][]float64, numUsers),
		post:         make([][]incPosting, numItems),
		itemRowUsers: make([][]int32, numItems),
		itemRowVals:  make([][]float64, numItems),
		itemDelta:    make([][]incDelta, numItems),
		itemGen:      make([]uint64, numItems),
		userGen:      make([]uint64, numUsers),
		stagedOff:    []int32{0},
	}
}

// NumUsers returns the user-side universe size.
func (inc *Incremental) NumUsers() int { return inc.numUsers }

// NumItems returns the item-side universe size.
func (inc *Incremental) NumItems() int { return inc.numItems }

// Begin resets the staging buffers for a new round of deltas.
func (inc *Incremental) Begin() {
	inc.stagedUsers = inc.stagedUsers[:0]
	inc.stagedOff = append(inc.stagedOff[:0], 0)
	inc.stagedItems = inc.stagedItems[:0]
	inc.stagedW = inc.stagedW[:0]
	inc.badWeight = false
}

// StageUser records user u's complete replacement edge set in fill order
// (items may repeat — duplicates accumulate like AddEdge). Users must be
// staged in ascending order, each at most once; an empty edge set clears the
// user's row. Edge.User is ignored; only Item and Weight are read.
func (inc *Incremental) StageUser(u int, edges []Edge) {
	if u < 0 || u >= inc.numUsers {
		panic(fmt.Sprintf("graph: staged user %d out of range [0,%d)", u, inc.numUsers))
	}
	if n := len(inc.stagedUsers); n > 0 && int(inc.stagedUsers[n-1]) >= u {
		panic("graph: StageUser calls must be strictly ascending by user")
	}
	inc.stagedUsers = append(inc.stagedUsers, int32(u))
	for _, e := range edges {
		if e.Item < 0 || e.Item >= inc.numItems {
			panic(fmt.Sprintf("graph: staged item %d out of range [0,%d)", e.Item, inc.numItems))
		}
		if !(e.Weight > 0) {
			inc.badWeight = true
		}
		inc.stagedItems = append(inc.stagedItems, int32(e.Item))
		inc.stagedW = append(inc.stagedW, e.Weight)
	}
	inc.stagedOff = append(inc.stagedOff, int32(len(inc.stagedItems)))
}

// BadWeight reports whether any staged edge carried a non-positive (or NaN)
// weight. Callers that can fall back to the full rebuild should check this
// before Commit, which panics on the same condition.
func (inc *Incremental) BadWeight() bool { return inc.badWeight }

// itemWSorter stable-sorts a staged (item, weight) span by item, preserving
// fill order within equal items — the order NewCSRPar's stable column sort
// leaves duplicates in.
type itemWSorter struct {
	items []int32
	w     []float64
}

func (s *itemWSorter) Len() int           { return len(s.items) }
func (s *itemWSorter) Less(i, j int) bool { return s.items[i] < s.items[j] }
func (s *itemWSorter) Swap(i, j int) {
	s.items[i], s.items[j] = s.items[j], s.items[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}

// incItemChunk is the affected-item granularity of the parallel patch pass.
// Scheduling only: every item's rebuild writes item-local state plus
// disjoint user-row slots, so partitioning never affects the result.
const incItemChunk = 256

// Commit applies the staged replacements. Three passes:
//
//  1. Per staged user (parallel, disjoint writes): recompute the user degree
//     as the fill-order sum, then stable-sort the span by item.
//  2. Serial sweep (users ascending): stamp staged users, collect the
//     affected-item set (old row ∪ new row of every staged user — only these
//     items' degrees can change), install the new row columns, and record
//     each staged group on its item (ascending-user order by construction).
//  3. Per affected item (parallel): splice the postings (drop staged users'
//     old contributions, merge in their new groups by user), recompute the
//     item degree as the ordered postings sum, and recompute every group
//     value at the item — clean users' mirrored row entries are patched in
//     place through the stored group position.
//
// Only slots owned by the item (or by a group that exactly one item owns)
// are written in pass 3, so the parallel pass is race-free and the result is
// identical for every worker count.
func (inc *Incremental) Commit(workers int) {
	if inc.badWeight {
		panic("graph: Incremental requires strictly positive edge weights; callers must check BadWeight and fall back to a full rebuild")
	}
	workers = par.Workers(workers)
	nStaged := len(inc.stagedUsers)
	inc.gen++
	gen := inc.gen
	inc.affected = inc.affected[:0]
	if nStaged == 0 {
		return
	}

	// Pass 1: degrees + span sorts, parallel over staged users.
	degSort := func(lo, hi int) {
		var s itemWSorter
		for k := lo; k < hi; k++ {
			a, b := inc.stagedOff[k], inc.stagedOff[k+1]
			d := 0.0
			for _, w := range inc.stagedW[a:b] {
				d += w
			}
			inc.userDeg[inc.stagedUsers[k]] = d
			s.items = inc.stagedItems[a:b]
			s.w = inc.stagedW[a:b]
			sort.Stable(&s)
		}
	}
	if workers <= 1 || nStaged < 2*incItemChunk {
		degSort(0, nStaged)
	} else {
		chunk := (nStaged + workers - 1) / workers
		par.ForChunks(nStaged, chunk, workers, degSort)
	}

	// Pass 2: affected set, new row columns, per-item staged groups.
	for k := 0; k < nStaged; k++ {
		u := int(inc.stagedUsers[k])
		inc.userGen[u] = gen
		for _, v := range inc.rowItems[u] {
			inc.touch(v)
		}
		lo, hi := int(inc.stagedOff[k]), int(inc.stagedOff[k+1])
		row := inc.rowItems[u][:0]
		for s := lo; s < hi; {
			v := inc.stagedItems[s]
			e := s + 1
			for e < hi && inc.stagedItems[e] == v {
				e++
			}
			inc.touch(v)
			inc.itemDelta[v] = append(inc.itemDelta[v], incDelta{
				user: int32(u), pos: int32(len(row)), off: int32(s), n: int32(e - s),
			})
			row = append(row, v)
			s = e
		}
		inc.rowItems[u] = row
		rv := inc.rowVals[u]
		if cap(rv) < len(row) {
			rv = make([]float64, len(row))
		} else {
			rv = rv[:len(row)]
		}
		inc.rowVals[u] = rv
	}

	// Pass 3: splice postings, recompute item degrees and group values.
	par.ForChunks(len(inc.affected), incItemChunk, workers, func(lo, hi int) {
		var merged []incPosting
		for ai := lo; ai < hi; ai++ {
			v := inc.affected[ai]
			merged = inc.spliceItem(int(v), gen, merged[:0])
			dv := 0.0
			for i := range merged {
				dv += merged[i].w
			}
			inc.itemDeg[v] = dv
			users := inc.itemRowUsers[v][:0]
			vals := inc.itemRowVals[v][:0]
			for s := 0; s < len(merged); {
				u := merged[s].user
				pos := merged[s].pos
				du := inc.userDeg[u]
				val := 0.0
				e := s
				for e < len(merged) && merged[e].user == u {
					val += normVal(merged[e].w, du, dv)
					e++
				}
				users = append(users, u)
				vals = append(vals, val)
				inc.rowVals[u][pos] = val
				s = e
			}
			inc.itemRowUsers[v] = users
			inc.itemRowVals[v] = vals
			inc.post[v] = append(inc.post[v][:0], merged...)
		}
	})
}

// touch adds item v to the affected set the first time it is seen this
// commit, truncating its staged-group list. Called only from the serial
// pass-2 sweep.
func (inc *Incremental) touch(v int32) {
	if inc.itemGen[v] != inc.gen {
		inc.itemGen[v] = inc.gen
		inc.itemDelta[v] = inc.itemDelta[v][:0]
		inc.affected = append(inc.affected, v)
	}
}

// spliceItem merges item v's surviving old postings with its staged groups
// into dst, in (user ascending, fill order) — the full build's accumulation
// order. Old entries of staged users (userGen stamp == gen) are dropped;
// staged and surviving users are disjoint, and both streams are ascending.
func (inc *Incremental) spliceItem(v int, gen uint64, dst []incPosting) []incPosting {
	old := inc.post[v]
	delta := inc.itemDelta[v]
	i, k := 0, 0
	for {
		for i < len(old) && inc.userGen[old[i].user] == gen {
			i++
		}
		if i < len(old) && (k >= len(delta) || old[i].user < delta[k].user) {
			dst = append(dst, old[i])
			i++
			continue
		}
		if k >= len(delta) {
			return dst
		}
		d := delta[k]
		k++
		for j := int32(0); j < d.n; j++ {
			dst = append(dst, incPosting{user: d.user, pos: d.pos, w: inc.stagedW[d.off+j]})
		}
	}
}

// incRowChunk is the row granularity of the parallel adjacency copy.
const incRowChunk = 4096

// AdjInto assembles the maintained normalized adjacency Â into dst (reusing
// its buffers; pass nil to allocate) and returns it. The result is
// bitwise-identical to NormalizedAdjPar on the equivalent Bipartite.
func (inc *Incremental) AdjInto(dst *tensor.CSR, workers int) *tensor.CSR {
	return inc.adjInto(dst, workers, false)
}

// AdjSelfInto is AdjInto for the self-loop-augmented operator Â + I,
// bitwise-identical to NormalizedAdjSelfPar: the unit diagonal lands first
// in user rows (col u precedes every item column U+v) and last in item rows,
// exactly where the full build's stable column sort places the appended
// identity triplets.
func (inc *Incremental) AdjSelfInto(dst *tensor.CSR, workers int) *tensor.CSR {
	return inc.adjInto(dst, workers, true)
}

func (inc *Incremental) adjInto(dst *tensor.CSR, workers int, self bool) *tensor.CSR {
	if dst == nil {
		dst = &tensor.CSR{}
	}
	U := inc.numUsers
	n := U + inc.numItems
	diag := 0
	if self {
		diag = 1
	}
	dst.Reshape(n, n)
	rp := dst.RowPtr
	rp[0] = 0
	for u := 0; u < U; u++ {
		rp[u+1] = rp[u] + len(inc.rowItems[u]) + diag
	}
	for v := 0; v < inc.numItems; v++ {
		rp[U+v+1] = rp[U+v] + len(inc.itemRowUsers[v]) + diag
	}
	dst.GrowNNZ()
	par.ForChunks(n, incRowChunk, par.Workers(workers), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			out := rp[r]
			if r < U {
				if self {
					dst.ColIdx[out] = r
					dst.Val[out] = 1
					out++
				}
				row, vals := inc.rowItems[r], inc.rowVals[r]
				for j, v := range row {
					dst.ColIdx[out+j] = U + int(v)
					dst.Val[out+j] = vals[j]
				}
			} else {
				row, vals := inc.itemRowUsers[r-U], inc.itemRowVals[r-U]
				for j, u := range row {
					dst.ColIdx[out+j] = int(u)
					dst.Val[out+j] = vals[j]
				}
				if self {
					dst.ColIdx[rp[r+1]-1] = r
					dst.Val[rp[r+1]-1] = 1
				}
			}
		}
	})
	return dst
}

// sliceHeaderBytes is the size of a Go slice header, counted once per
// maintained per-user/per-item row.
const sliceHeaderBytes = 24

// MemoryBytes estimates the engine's resident footprint: degree and stamp
// vectors, per-user rows (the dominant per-user cost: two slice headers plus
// 12 B per distinct item), per-item postings (16 B per raw edge) and rows,
// and the staging/scratch buffers at their current capacity.
func (inc *Incremental) MemoryBytes() int64 {
	b := int64(len(inc.userDeg)+len(inc.itemDeg)) * 8
	b += int64(len(inc.userGen)+len(inc.itemGen)) * 8
	b += int64(len(inc.rowItems)+len(inc.itemRowUsers)) * 2 * sliceHeaderBytes
	b += int64(len(inc.post)+len(inc.itemDelta)) * sliceHeaderBytes
	for _, r := range inc.rowItems {
		b += int64(cap(r)) * 4
	}
	for _, r := range inc.rowVals {
		b += int64(cap(r)) * 8
	}
	for _, p := range inc.post {
		b += int64(cap(p)) * 16
	}
	for v := range inc.itemRowUsers {
		b += int64(cap(inc.itemRowUsers[v]))*4 + int64(cap(inc.itemRowVals[v]))*8
	}
	for _, d := range inc.itemDelta {
		b += int64(cap(d)) * 16
	}
	b += int64(cap(inc.stagedUsers))*4 + int64(cap(inc.stagedOff))*4
	b += int64(cap(inc.stagedItems))*4 + int64(cap(inc.stagedW))*8
	b += int64(cap(inc.affected)) * 4
	return b
}
