// Topology caching: the expensive half of a scan — cycle enumeration over
// the token graph — depends only on the market's *topology* (which pools
// exist, which tokens they connect, their fees), not on reserves. Block
// after block the topology is almost always unchanged while reserves move
// on every swap, so a block-driven service re-enumerates identical cycle
// sets thousands of times. Cache memoizes enumeration behind a topology
// fingerprint: a warm scan rebuilds the (cheap) graph for fresh reserves
// and reuses the cached cycles verbatim, because identical fingerprints
// guarantee identical node and pool indexing.
package scan

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"sync"

	"arbloop/internal/amm"
	"arbloop/internal/cycles"
	"arbloop/internal/graph"
	"arbloop/internal/strategy"
)

// Canonicalize returns the pool set in canonical order: sorted by pool ID
// (ties broken by token pair, then fee). The scan engine canonicalizes
// every pool slice before building the graph, so a PoolSource that
// returns the same pools in a different order produces the same graph,
// the same fingerprint, and the same detection order — permutations can
// no longer thrash the topology cache or shift result indices. The input
// slice is never mutated; when it is already canonical it is returned
// as-is (no copy).
func Canonicalize(pools []*amm.Pool) []*amm.Pool {
	if sort.SliceIsSorted(pools, func(i, j int) bool { return poolLess(pools[i], pools[j]) }) {
		return pools
	}
	out := make([]*amm.Pool, len(pools))
	copy(out, pools)
	sort.SliceStable(out, func(i, j int) bool { return poolLess(out[i], out[j]) })
	return out
}

// poolLess orders pools by ID, then token pair, then fee. Reserves are
// deliberately excluded so a reserve-only update never reorders the
// canonical pool set.
func poolLess(a, b *amm.Pool) bool {
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	if a.Token0 != b.Token0 {
		return a.Token0 < b.Token0
	}
	if a.Token1 != b.Token1 {
		return a.Token1 < b.Token1
	}
	return a.Fee < b.Fee
}

// Fingerprint hashes the topology of a pool set: pool IDs, token pairs,
// and fees — everything except the reserves. The set is canonicalized
// (sorted by pool ID) before hashing, so two sources returning the same
// pools in different orders agree on the fingerprint. Two pool slices
// with equal fingerprints produce identical canonical graphs up to
// reserve values (same node indices, same edge indices), so cycle sets
// enumerated against one are valid against the other.
func Fingerprint(pools []*amm.Pool) string {
	pools = Canonicalize(pools)
	n := 0
	for _, p := range pools {
		n += 4*8 + len(p.ID) + len(p.Token0) + len(p.Token1)
	}
	buf := make([]byte, 0, n)
	for _, p := range pools {
		buf = appendField(buf, p.ID)
		buf = appendField(buf, p.Token0)
		buf = appendField(buf, p.Token1)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Fee))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// appendField appends a length-prefixed string so adjacent fields cannot
// alias ("ab"+"c" vs "a"+"bc").
func appendField(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s)))
	return append(buf, s...)
}

// topology is one cached enumeration result plus the inverted indexes
// delta scans consult: which cycles touch a given pool, and which cycles
// touch a given token. Everything here depends only on the topology
// (canonical pool order, token set), never on reserves, so it is built
// once per enumeration and shared by every scan that hits the cache. All
// fields are treated as immutable by every reader.
type topology struct {
	cycles []cycles.Cycle
	// progs[ci] is cycle ci's hop program: the hops of its forward
	// traversal, then those of its reverse traversal (see hops). Compiled
	// and validated once, it is how a scan reads a cycle's reserves and
	// prices.
	progs [][]strategy.HopIndex
	// planOff[ci] is where cycle ci's plan starts in a delta state's plan
	// slab, one input per hop; planOff[len(cycles)] is the slab's length.
	planOff []int32
	// skel is the canonical graph the cycles were enumerated on. Its
	// reserves are a snapshot, but its node index, edge list, and
	// adjacency depend only on the topology, so warm scans Rebind it to
	// fresh pools instead of rebuilding the graph per scan.
	skel *graph.Graph
	// poolCycles[i] lists the indices of cycles that route through the
	// canonical pool index i.
	poolCycles [][]int
	// tokens lists the graph's token keys in node order, which graph.Build
	// makes lexicographic: the sorted universe of price symbols.
	tokens []string
	// tokenCycles maps a token key to the indices of cycles visiting it.
	tokenCycles map[string][]int
	// poolIndex maps a pool ID to its canonical pool index.
	poolIndex map[string]int
}

// newTopology indexes an enumerated cycle set against the canonical graph
// it was enumerated on and compiles each cycle's hop program. A cycle
// that is not a valid loop fails it.
func newTopology(g *graph.Graph, cs []cycles.Cycle) (*topology, error) {
	top := &topology{
		cycles:      cs,
		progs:       make([][]strategy.HopIndex, len(cs)),
		planOff:     make([]int32, len(cs)+1),
		skel:        g,
		tokens:      g.Nodes(),
		poolCycles:  make([][]int, g.NumEdges()),
		tokenCycles: make(map[string][]int, g.NumNodes()),
		poolIndex:   make(map[string]int, g.NumEdges()),
	}
	for i := 0; i < g.NumEdges(); i++ {
		top.poolIndex[g.Pool(i).ID] = i
	}
	hops := 0
	for _, c := range cs {
		hops += 2 * c.Len()
	}
	slab := make([]strategy.HopIndex, hops)
	for ci, c := range cs {
		k := c.Len()
		prog := slab[: 2*k : 2*k]
		slab = slab[2*k:]
		if err := compileHops(g, c.Nodes, c.Pools, prog[:k]); err != nil {
			return nil, fmt.Errorf("scan: cycle %v: %w", c.Forward(), err)
		}
		for i := 0; i < k; i++ {
			// Reverse hop i runs forward hop k−1−i backwards: into the
			// same pool with the token that hop puts out.
			h := prog[k-1-i]
			prog[k+i] = strategy.HopIndex{Pool: h.Pool, Token: prog[(k-i)%k].Token, In0: !h.In0}
		}
		top.progs[ci] = prog
		top.planOff[ci+1] = top.planOff[ci] + int32(k)
		for _, pi := range c.Pools {
			top.poolCycles[pi] = append(top.poolCycles[pi], ci)
		}
		for _, ni := range c.Nodes {
			tok := g.Node(ni)
			top.tokenCycles[tok] = append(top.tokenCycles[tok], ci)
		}
	}
	return top, nil
}

// compileHops compiles the traversal in which hop i enters pools[i] with
// token nodes[i] into dst, one HopIndex per hop, running NewLoop's checks
// by index: at least two hops, each pool holding its input token and
// handing its other token to the next hop, and no token or pool twice. A
// traversal that fails them returns NewLoop's own error for it.
func compileHops(g *graph.Graph, nodes, pools []int, dst []strategy.HopIndex) error {
	n := len(nodes)
	ok := n >= 2
	for i := 0; ok && i < n; i++ {
		e := g.Edge(pools[i])
		in, out := nodes[i], e.V
		if in == e.V {
			out = e.U
		}
		ok = (in == e.U || in == e.V) && out == nodes[(i+1)%n]
		for j := 0; ok && j < i; j++ {
			ok = nodes[j] != in && g.Pool(pools[j]) != g.Pool(pools[i])
		}
		dst[i] = strategy.HopIndex{Pool: int32(pools[i]), Token: int32(in), In0: in == e.U}
	}
	if ok {
		return nil
	}
	_, err := strategy.NewLoop(graphHops(g, nodes, pools))
	return err
}

// graphHops resolves a traversal's hops through the graph.
func graphHops(g *graph.Graph, nodes, pools []int) []strategy.Hop {
	hops := make([]strategy.Hop, len(nodes))
	for i := range hops {
		hops[i] = strategy.Hop{Pool: g.Pool(pools[i]), TokenIn: g.Node(nodes[i])}
	}
	return hops
}

// hops returns cycle ci's hop program traversed in orientation o
// (orientForward or orientReverse).
func (top *topology) hops(ci int, o int8) []strategy.HopIndex {
	p := top.progs[ci]
	if o == orientReverse {
		return p[len(p)/2:]
	}
	return p[:len(p)/2]
}

// orient returns the profitable orientation of cycle ci against pools,
// mirroring cycles.ArbitrageLoops (forward tested first), reading the
// reserves through the hop program. Each orientation's price product
// multiplies its hops' spot prices γ·r_out/r_in in traversal order, as
// cycles.PriceProduct does and as Convex tests the staged loop, so the
// products are bit-identical to both and every loop a scan detects is
// one Convex solves.
//
//arblint:hotpath
func (top *topology) orient(pools []*amm.Pool, ci int) int8 {
	for _, o := range [...]int8{orientForward, orientReverse} {
		prod := 1.0
		for _, h := range top.hops(ci, o) {
			rin, rout := h.Reserves(pools)
			prod *= pools[h.Pool].Gamma() * rout / rin
		}
		if prod > 1 {
			return o
		}
	}
	return orientNone
}

// priceSymbols appends to dst, in sorted order, every token on a cycle
// that has a loop this scan (loopOf[ci] >= 0): the symbols the scan
// fetches prices for, with no per-scan set to build or sort.
func (top *topology) priceSymbols(dst []string, loopOf []int32) []string {
	for _, tok := range top.tokens {
		for _, ci := range top.tokenCycles[tok] {
			if loopOf[ci] >= 0 {
				dst = append(dst, tok)
				break
			}
		}
	}
	return dst
}

// DefaultCacheCapacity bounds a zero-configured cache. A live service
// sees one fingerprint per market it serves; a handful covers realistic
// multi-tenant use while bounding memory on adversarial topology churn.
const DefaultCacheCapacity = 8

// CacheStats reports cache effectiveness counters.
type CacheStats struct {
	// Hits counts scans that skipped cycle enumeration.
	Hits uint64
	// Misses counts scans that enumerated (and populated the cache).
	Misses uint64
	// Entries is the current number of cached topologies.
	Entries int
}

// Cache memoizes the topology phase of detection across scans, keyed by
// the pool-set fingerprint plus the enumeration bounds. It is an LRU with
// a hard capacity and is safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element // key → *cacheEntry element
	order   *list.List               // front = most recently used
	hits    uint64
	misses  uint64
}

type cacheEntry struct {
	key string
	top *topology
}

// NewCache builds a topology cache holding up to capacity entries
// (capacity <= 0 selects DefaultCacheCapacity).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{
		cap:     capacity,
		entries: make(map[string]*list.Element, capacity),
		order:   list.New(),
	}
}

// cacheKey scopes a fingerprint by the enumeration parameters that shape
// the cycle set, so one Cache can serve scans with different bounds.
func cacheKey(fingerprint string, cfg Config) string {
	return fmt.Sprintf("%d:%d:%d:%s", cfg.MinLen, cfg.MaxLen, cfg.MaxCycles, fingerprint)
}

// lookup returns the cached topology for key, marking it most recently
// used, and records the hit/miss.
func (c *Cache) lookup(key string) (*topology, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).top, true
}

// store inserts (or refreshes) a topology, evicting the least recently
// used entry past capacity.
func (c *Cache) store(key string, top *topology) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).top = top
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, top: top})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// Stats returns the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.order.Len()}
}
