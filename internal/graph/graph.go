// Package graph models the token exchange graph of a DEX snapshot: nodes
// are tokens, edges are liquidity pools (a multigraph — two tokens may
// share several pools). The paper builds this graph from Uniswap V2 state
// filtered by TVL and minimum reserve (§VI); package market applies those
// filters before handing pools to Build.
package graph

import (
	"errors"
	"fmt"
	"sort"

	"arbloop/internal/amm"
)

// Errors returned by graph construction and queries.
var (
	ErrUnknownNode = errors.New("graph: unknown token")
	ErrNilPool     = errors.New("graph: nil pool")
)

// Edge is a pool attached to the graph with resolved node indices.
type Edge struct {
	// PoolIndex is the index into Graph.Pools.
	PoolIndex int
	// U, V are node indices of Pool.Token0 and Pool.Token1.
	U, V int
}

// Graph is an immutable token exchange multigraph. Build it with Build;
// the zero value is an empty graph.
type Graph struct {
	nodes []string
	index map[string]int
	pools []*amm.Pool
	edges []Edge
	adj   [][]Adjacency
}

// Adjacency is one outgoing half-edge: the pool and the neighbour reached
// through it.
type Adjacency struct {
	PoolIndex int
	Neighbor  int
}

// Build constructs the graph from pools. Token keys become nodes sorted
// lexicographically so node indices are deterministic.
func Build(pools []*amm.Pool) (*Graph, error) {
	nodeSet := make(map[string]struct{})
	for i, p := range pools {
		if p == nil {
			return nil, fmt.Errorf("%w at index %d", ErrNilPool, i)
		}
		nodeSet[p.Token0] = struct{}{}
		nodeSet[p.Token1] = struct{}{}
	}
	nodes := make([]string, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	index := make(map[string]int, len(nodes))
	for i, n := range nodes {
		index[n] = i
	}

	g := &Graph{
		nodes: nodes,
		index: index,
		pools: make([]*amm.Pool, len(pools)),
		edges: make([]Edge, 0, len(pools)),
		adj:   make([][]Adjacency, len(nodes)),
	}
	copy(g.pools, pools)
	for i, p := range pools {
		u, v := index[p.Token0], index[p.Token1]
		g.edges = append(g.edges, Edge{PoolIndex: i, U: u, V: v})
		g.adj[u] = append(g.adj[u], Adjacency{PoolIndex: i, Neighbor: v})
		g.adj[v] = append(g.adj[v], Adjacency{PoolIndex: i, Neighbor: u})
	}
	return g, nil
}

// Rebind returns a graph sharing this graph's topology (nodes, edges,
// adjacency) but reading reserves from the given pool slice. It is the
// per-block fast path behind the scan engine's topology cache: when two
// pool sets have equal fingerprints their canonical graphs are identical
// up to reserve values, so rebuilding the node index and adjacency lists
// per scan is pure waste. pools must be the canonical pool slice of a
// topology-identical market (same length, same tokens per index); the
// slice is retained, not copied, and must not be mutated afterwards.
func (g *Graph) Rebind(pools []*amm.Pool) (*Graph, error) {
	if len(pools) != len(g.pools) {
		return nil, fmt.Errorf("graph: rebind %d pools onto a %d-pool topology", len(pools), len(g.pools))
	}
	return &Graph{
		nodes: g.nodes,
		index: g.index,
		pools: pools,
		edges: g.edges,
		adj:   g.adj,
	}, nil
}

// NumNodes returns the token count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the pool count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Node returns the token key of node i.
func (g *Graph) Node(i int) string { return g.nodes[i] }

// Nodes returns a copy of all token keys in index order.
func (g *Graph) Nodes() []string {
	out := make([]string, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// NodeIndex resolves a token key to its node index.
func (g *Graph) NodeIndex(tok string) (int, error) {
	i, ok := g.index[tok]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownNode, tok)
	}
	return i, nil
}

// Pool returns the pool behind edge index e.
func (g *Graph) Pool(e int) *amm.Pool { return g.pools[e] }

// Pools returns a copy of the pool slice.
func (g *Graph) Pools() []*amm.Pool {
	out := make([]*amm.Pool, len(g.pools))
	copy(out, g.pools)
	return out
}

// Edge returns edge e: pool e and the node indices of its two tokens.
func (g *Graph) Edge(e int) Edge { return g.edges[e] }

// Edges returns a copy of the edge list.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Adjacent returns the half-edges leaving node i. The returned slice is
// shared; callers must not mutate it.
func (g *Graph) Adjacent(i int) []Adjacency { return g.adj[i] }

// Degree returns the number of pools incident to node i.
func (g *Graph) Degree(i int) int { return len(g.adj[i]) }

// ConnectedComponents returns the node sets of connected components,
// largest first, each sorted by node index.
func (g *Graph) ConnectedComponents() [][]int {
	seen := make([]bool, len(g.nodes))
	var comps [][]int
	for start := range g.nodes {
		if seen[start] {
			continue
		}
		var comp []int
		stack := []int{start}
		seen[start] = true
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, n)
			for _, a := range g.adj[n] {
				if !seen[a.Neighbor] {
					seen[a.Neighbor] = true
					stack = append(stack, a.Neighbor)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool {
		if len(comps[i]) != len(comps[j]) {
			return len(comps[i]) > len(comps[j])
		}
		return comps[i][0] < comps[j][0]
	})
	return comps
}

// PoolsBetween returns the indices of all pools connecting tokens a and b.
func (g *Graph) PoolsBetween(a, b string) ([]int, error) {
	ia, err := g.NodeIndex(a)
	if err != nil {
		return nil, err
	}
	ib, err := g.NodeIndex(b)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, adj := range g.adj[ia] {
		if adj.Neighbor == ib {
			out = append(out, adj.PoolIndex)
		}
	}
	return out, nil
}
