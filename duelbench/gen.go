package main

// Inputs of the three workloads, made from the seed alone. The program
// under test sees only what these functions produce: a target image built
// through internal/target (image.go) and query texts. Each query keeps the
// parameters the plain-Go reference (reference.go) needs to check it.
//
// Sizes, selectivities and list positions are fixed quantiles of the
// distributions the workloads name (log-uniform lengths, stratified
// thresholds), so every seed runs the same mix of work; the seed picks the
// data, the node layout, where each range starts and the query order. That
// keeps run-to-run spread down to the system's own noise instead of the luck
// of one seed's size draw.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
)

// Random streams, one per purpose, so adding a draw to one input does not
// shift another.
const (
	streamScan = iota + 1
	streamWalk
	streamServe
	streamServeSteps // + step index
)

func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// kind is the shape of one query; the reference dispatches on it.
type kind int

const (
	kFilterGT  kind = iota // x[a..b] >? k
	kFilterEQ              // x[a..b] ==? k
	kSum                   // +/x[a..b]
	kCountGT               // #/(x[a..b] >? k)
	kLookup                // (a..b)+i
	kListWalk              // lJ-->next->value
	kListCount             // #/lJ-->next
	kListIndex             // lJ-->next[[q]]
	kListFind              // lJ-->next->(value ==? v)
	kTreeWalk              // tJ-->(left,right)->key >? t
	kElem                  // r[a]
	kWrite                 // w[j] = v
)

// query is one generated query text with the parameters that define its
// expected output. Array queries read arr[a..b]; walk queries name
// structure obj.
type query struct {
	Text string
	kind kind
	arr  string
	a, b int
	k    int32 // threshold, needle, or written value
	obj  int
	q    int // list index of [[q]]
}

// valueRange bounds every generated array element and node value:
// elements are uniform in [0, valueRange).
const valueRange = 1000

// closedWriteRegion is the size of the closed loops' int w[], which only
// their writes touch.
const closedWriteRegion = 64

// writePool is the number of distinct write texts a closed-loop client
// cycles through, small enough that writes never crowd the read queries out
// of the compiled backend's source cache.
const writePool = 16

// --- scan -----------------------------------------------------------------

const (
	scanN      = 1 << 20 // int x[scanN]: 4 MB
	scanStrata = 12      // lengths per query kind
	scanMinLen = 1e3
	scanMaxLen = 1e5
	// scanNeedleStep spaces where the ==? queries' first match sits in
	// their ranges, stratum by stratum.
	scanNeedleStep = 64
)

var scanKinds = []kind{kFilterGT, kFilterEQ, kSum, kCountGT, kLookup}

type scanInput struct {
	X       []int32
	W       []int32 // int w[closedWriteRegion], initially zero
	I       int32   // int i, the operand of the lookup-heavy queries
	Queries []query
	Writes  []query
}

// logQuantile is the midpoint of stratum j of S over [lo, hi] on a log
// scale.
func logQuantile(lo, hi float64, j, strata int) float64 {
	return lo * math.Pow(hi/lo, (float64(j)+0.5)/float64(strata))
}

// stratumSel is a selectivity for stratum j, scrambled against length so
// short and long ranges both see sparse and dense filters.
func stratumSel(j, strata int) float64 {
	return (float64((j*5)%strata) + 0.5) / float64(strata)
}

// threshold is the k for which a value uniform in [0, span) exceeds k with
// probability sel.
func threshold(sel float64, span int) int32 {
	return int32(math.Round(float64(span)*(1-sel))) - 1
}

func genScan(seed uint64) *scanInput {
	r := newRand(seed, streamScan)
	in := &scanInput{X: make([]int32, scanN), W: make([]int32, closedWriteRegion), I: 1 + r.Int32N(valueRange)}
	for i := range in.X {
		in.X[i] = r.Int32N(valueRange)
	}
	for _, kd := range scanKinds {
		for j := 0; j < scanStrata; j++ {
			n := int(math.Round(logQuantile(scanMinLen, scanMaxLen, j, scanStrata)))
			a := r.IntN(scanN - n)
			q := query{kind: kd, arr: "x", a: a, b: a + n - 1}
			switch kd {
			case kFilterGT:
				q.k = threshold(stratumSel(j, scanStrata), valueRange)
				q.Text = fmt.Sprintf("x[%d..%d] >? %d", q.a, q.b, q.k)
			case kFilterEQ:
				q.k = plantNeedle(r, in.X[a:], j*scanNeedleStep+scanNeedleStep/2)
				q.Text = fmt.Sprintf("x[%d..%d] ==? %d", q.a, q.b, q.k)
			case kSum:
				q.Text = fmt.Sprintf("+/x[%d..%d]", q.a, q.b)
			case kCountGT:
				q.k = threshold(stratumSel(j, scanStrata), valueRange)
				q.Text = fmt.Sprintf("#/(x[%d..%d] >? %d)", q.a, q.b, q.k)
			case kLookup:
				q.Text = fmt.Sprintf("(%d..%d)+i", q.a, q.b)
			}
			in.Queries = append(in.Queries, q)
		}
	}
	shuffle(r, in.Queries)
	in.Writes = genWrites(r, closedWriteRegion)
	return in
}

// genWrites makes the closed-loop clients' write pool: writePool
// assignments to distinct elements of w.
func genWrites(r *rand.Rand, region int) []query {
	idx := r.Perm(region)[:writePool]
	ws := make([]query, writePool)
	for n, j := range idx {
		v := 1 + r.Int32N(1<<20)
		ws[n] = query{kind: kWrite, arr: "w", a: j, b: j, k: v, Text: fmt.Sprintf("w[%d] = %d", j, v)}
	}
	return ws
}

// plantNeedle picks a value that does not occur in xs[:p] and stores it at
// xs[p], so an equality search over xs first matches at element p on every
// seed: time to the first value is then a stratified quantity like the
// lengths, not the luck of where a random value first turns up.
func plantNeedle(r *rand.Rand, xs []int32, p int) int32 {
	seen := make([]bool, valueRange)
	for _, x := range xs[:p] {
		seen[x] = true
	}
	for {
		if v := r.Int32N(valueRange); !seen[v] {
			xs[p] = v
			return v
		}
	}
}

func shuffle(r *rand.Rand, qs []query) {
	r.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
}

// --- walk -----------------------------------------------------------------

const (
	walkLists   = 8 // lists l0..l7, log-uniform lengths
	walkListMin = 250
	walkListMax = 4000
	walkTrees   = 8 // trees t0..t7, log-uniform node counts
	walkTreeMin = 1 << 8
	walkTreeMax = 1 << 12
	// treeKeyRange bounds tree keys: distinct, so the range exceeds the
	// largest tree.
	treeKeyRange = 8 * valueRange
	// walkNeedleStep spaces where the ListFind queries' first match sits
	// in their lists, list by list.
	walkNeedleStep = 96
)

// list is one singly linked list; node k lives in slot Slot[k] of the
// image's node block, so consecutive nodes are scattered through memory.
type list struct {
	Vals []int32
	Slot []int
}

// tree is one binary search tree; node 0 is the root, Left/Right are node
// indices (-1 for NULL), and node k lives in slot Slot[k] of the tree block.
type tree struct {
	Keys        []int32
	Left, Right []int
	Slot        []int
}

type walkInput struct {
	Lists   []list
	Trees   []tree
	W       []int32
	Queries []query
	Writes  []query
}

func genWalk(seed uint64) *walkInput {
	r := newRand(seed, streamWalk)
	in := &walkInput{W: make([]int32, closedWriteRegion)}

	sizes := make([]int, walkLists)
	total := 0
	for j := range sizes {
		sizes[j] = int(math.Round(logQuantile(walkListMin, walkListMax, j, walkLists)))
		total += sizes[j]
	}
	slots := r.Perm(total)
	for _, n := range sizes {
		l := list{Vals: make([]int32, n), Slot: slots[:n]}
		slots = slots[n:]
		for k := range l.Vals {
			l.Vals[k] = r.Int32N(valueRange)
		}
		in.Lists = append(in.Lists, l)
	}

	total = 0
	tsizes := make([]int, walkTrees)
	for j := range tsizes {
		tsizes[j] = int(math.Round(logQuantile(walkTreeMin, walkTreeMax, j, walkTrees)))
		total += tsizes[j]
	}
	slots = r.Perm(total)
	for j, n := range tsizes {
		in.Trees = append(in.Trees, genTree(r, n, slots[:n], treeThreshold(j)))
		slots = slots[n:]
	}

	for j, l := range in.Lists {
		n := len(l.Vals)
		name := fmt.Sprintf("l%d", j)
		in.Queries = append(in.Queries,
			query{kind: kListWalk, obj: j, Text: name + "-->next->value"},
			query{kind: kListCount, obj: j, Text: "#/" + name + "-->next"},
		)
		// The [[q]] positions are stratified like the lengths: walking to
		// node q costs the same as a full walk of a q-node list.
		q := int(float64(n) * (float64((j*3)%walkLists) + 0.5) / walkLists)
		in.Queries = append(in.Queries, query{kind: kListIndex, obj: j, q: q, Text: fmt.Sprintf("%s-->next[[%d]]", name, q)})
		v := plantNeedle(r, l.Vals, j*walkNeedleStep+walkNeedleStep/2)
		in.Queries = append(in.Queries, query{kind: kListFind, obj: j, k: v, Text: fmt.Sprintf("%s-->next->(value ==? %d)", name, v)})
	}
	for j := range in.Trees {
		t := treeThreshold(j)
		in.Queries = append(in.Queries, query{kind: kTreeWalk, obj: j, k: t, Text: fmt.Sprintf("t%d-->(left,right)->key >? %d", j, t)})
	}
	shuffle(r, in.Queries)
	in.Writes = genWrites(r, closedWriteRegion)
	return in
}

// treeThreshold is the key bound of tree j's filter.
func treeThreshold(j int) int32 { return threshold(stratumSel(j, walkTrees), treeKeyRange) }

// genTree builds a random binary search tree of n distinct keys by
// inserting them in random order, the first a key above rootAbove: the
// root passes the tree's filter, so its first value comes at once on every
// seed.
func genTree(r *rand.Rand, n int, slots []int, rootAbove int32) tree {
	t := tree{Keys: make([]int32, n), Left: make([]int, n), Right: make([]int, n), Slot: slots}
	keys := r.Perm(treeKeyRange)[:n]
	for i, k := range keys {
		if int32(k) > rootAbove {
			keys[0], keys[i] = keys[i], keys[0]
			break
		}
	}
	for k := range t.Keys {
		t.Keys[k] = int32(keys[k])
		t.Left[k], t.Right[k] = -1, -1
		if k == 0 {
			continue
		}
		at := 0
		for {
			next := &t.Right[at]
			if t.Keys[k] < t.Keys[at] {
				next = &t.Left[at]
			}
			if *next < 0 {
				*next = k
				break
			}
			at = *next
		}
	}
	return t
}

// --- serve ----------------------------------------------------------------

const (
	serveR        = 4096    // int r[serveR]: the read region
	serveW        = 1 << 18 // int w[serveW]: the write region
	serveReadPool = 1000    // distinct read texts, above the compiled source cache of 128
	serveZipfS    = 1.01    // Zipf exponent of read popularity
	serveWriteMix = 0.10    // share of requests that are writes
	serveMinLen   = 8
	serveMaxLen   = 64
)

var serveKinds = []kind{kFilterGT, kSum, kCountGT, kElem}

type serveInput struct {
	R     []int32
	Reads []query // the read pool, indexed by popularity rank
	seed  uint64
}

// genServe makes the read pool. Popularity rank i fixes the query's kind,
// length and selectivity, so the mix a Zipf draw lands on is the same for
// every seed; the seed picks the data, where each range starts, and the
// draws.
func genServe(seed uint64) *serveInput {
	r := newRand(seed, streamServe)
	in := &serveInput{R: make([]int32, serveR), seed: seed}
	for i := range in.R {
		in.R[i] = r.Int32N(valueRange)
	}
	seen := map[string]bool{}
	for i := 0; i < serveReadPool; i++ {
		kd := serveKinds[i%len(serveKinds)]
		n := serveMinLen + (i*37)%(serveMaxLen-serveMinLen+1)
		sel := stratumSel(i/len(serveKinds), 8)
		for {
			a := r.IntN(serveR - n)
			q := query{kind: kd, arr: "r", a: a, b: a + n - 1, k: orderThreshold(in.R[a:a+n], sel)}
			switch kd {
			case kFilterGT:
				q.Text = fmt.Sprintf("r[%d..%d] >? %d", q.a, q.b, q.k)
			case kSum:
				q.Text = fmt.Sprintf("+/r[%d..%d]", q.a, q.b)
			case kCountGT:
				q.Text = fmt.Sprintf("#/(r[%d..%d] >? %d)", q.a, q.b, q.k)
			case kElem:
				q.b = a
				q.Text = fmt.Sprintf("r[%d]", a)
			}
			if !seen[q.Text] {
				seen[q.Text] = true
				in.Reads = append(in.Reads, q)
				break
			}
		}
	}
	return in
}

// orderThreshold is the k that about sel of xs exceed: an order statistic
// of xs itself, so the count does not vary with the seed's draw of xs.
func orderThreshold(xs []int32, sel float64) int32 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[min(len(s)-1, int(float64(len(s))*(1-sel)))]
}

// stepStreams makes the request streams of the ladder's steps: reads drawn
// with Zipf popularity from the pool, and a serveWriteMix share of writes
// to distinct elements of w, so the final image does not depend on the
// order replicas apply them. A step's stream is made when the step is
// about to run, so the streams of later steps do not sit in the heap that
// peak_heap_mb measures.
type stepStreams struct {
	in     *serveInput
	counts []int
	widx   []int // write indices in the order writes take them
	nw     []int // writes made by the steps before each step
}

// serveSteps plans the streams of steps with the given request counts.
func (in *serveInput) serveSteps(counts []int) *stepStreams {
	ss := &stepStreams{in: in, counts: counts, widx: newRand(in.seed, streamServeSteps).Perm(serveW), nw: make([]int, len(counts))}
	nw := 0
	for s := range counts {
		ss.nw[s] = nw
		_, nw = ss.make(s)
	}
	return ss
}

// step returns step s's stream.
func (ss *stepStreams) step(s int) []*query {
	reqs, _ := ss.make(s)
	return reqs
}

// make generates step s's stream and returns it with the number of writes
// made up to its end.
func (ss *stepStreams) make(s int) ([]*query, int) {
	nw := ss.nw[s]
	r := newRand(ss.in.seed, streamServeSteps+1+uint64(s))
	z := rand.NewZipf(r, serveZipfS, 1, serveReadPool-1)
	reqs := make([]*query, ss.counts[s])
	for n := range reqs {
		if r.Float64() < serveWriteMix && nw < serveW {
			j := ss.widx[nw]
			nw++
			v := 1 + r.Int32N(1<<20)
			reqs[n] = &query{kind: kWrite, arr: "w", a: j, b: j, k: v, Text: fmt.Sprintf("w[%d] = %d", j, v)}
			continue
		}
		reqs[n] = &ss.in.Reads[z.Uint64()]
	}
	return reqs, nw
}
