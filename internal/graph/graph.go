// Package graph builds the paper's dependency graph (Sec. III-A2): one node
// per IR operation, directed edges between dependent operations weighted by
// the number of wires of the connection, operations that share one RTL
// module merged into a single combined node (Fig. 4), and "port"-type nodes
// marking which operators meet at the same function I/O port. The feature
// extractor reads interconnection, resource and #Resource/ΔTcs features off
// this graph, including the two-hop neighborhoods the paper found most
// influential.
package graph

import (
	"slices"

	"repro/internal/hls"
	"repro/internal/ir"
)

// Node is one dependency-graph vertex: a single operation, or several
// operations merged because they share a functional unit.
type Node struct {
	ID   int
	Ops  []*ir.Op
	Kind ir.OpKind
	// Bitwidth is the widest member operation.
	Bitwidth int

	In  []*Edge
	Out []*Edge

	// res caches Characterize(Kind, Bitwidth).Res: the extractor reads a
	// node's resources once per feature, and characterization is pure.
	res hls.Resources
}

// IsMerged reports whether the node combines shared operations.
func (n *Node) IsMerged() bool { return len(n.Ops) > 1 }

// IsPort reports whether the node represents a function I/O port.
func (n *Node) IsPort() bool { return n.Kind == ir.KindPort }

// Res returns the characterized resource usage of the node's hardware: one
// functional-unit instance (merged operations share it, so it is counted
// once, exactly why the paper merges the nodes).
func (n *Node) Res() hls.Resources { return n.res }

// FanIn returns the summed wire weight of incoming edges.
func (n *Node) FanIn() int {
	w := 0
	for _, e := range n.In {
		w += e.Wires
	}
	return w
}

// FanOut returns the summed wire weight of outgoing edges.
func (n *Node) FanOut() int {
	w := 0
	for _, e := range n.Out {
		w += e.Wires
	}
	return w
}

// Edge is a directed, wire-weighted dependence between nodes. Parallel
// dependences between the same pair are combined with their wire counts
// summed.
type Edge struct {
	From, To *Node
	Wires    int
}

// Graph is the module-wide dependency graph.
type Graph struct {
	Nodes []*Node
	OfOp  ir.OpTable[*Node]
}

// Build constructs the graph for a module. When binding is non-nil,
// operations bound to one shared functional unit collapse into a combined
// node; passing nil keeps one node per operation (the pre-merge graph).
//
// The nodes come from one slab, every edge from one []Edge and the In and
// Out lists from two pointer backings, each list carved with cap == len:
// a graph costs a handful of allocations whatever its size.
func Build(m *ir.Module, binding *hls.Binding) *Graph {
	g := &Graph{OfOp: ir.NewOpTable[*Node](m)}
	ops := m.AllOps()
	// One node per unit and one per op the binder never saw. A node is
	// complete once its pointer is taken, so even a slab that had to grow
	// would leave every node where g.Nodes points.
	nodes := len(ops)
	if binding != nil {
		nodes = len(binding.Units)
		for _, o := range ops {
			if _, ok := binding.UnitOf.Lookup(o); !ok {
				nodes++
			}
		}
	}
	slab := make([]Node, 0, nodes)
	g.Nodes = make([]*Node, 0, nodes)
	var single []*ir.Op // backs the Ops lists of one-op nodes

	newNode := func(ops []*ir.Op) {
		slab = append(slab, Node{ID: len(g.Nodes), Ops: ops, Kind: ops[0].Kind})
		n := &slab[len(slab)-1]
		for _, o := range ops {
			if o.Bitwidth > n.Bitwidth {
				n.Bitwidth = o.Bitwidth
			}
			g.OfOp.Set(o, n)
		}
		n.res = hls.Characterize(n.Kind, n.Bitwidth).Res
		g.Nodes = append(g.Nodes, n)
	}

	if binding != nil {
		for _, u := range binding.Units {
			newNode(u.Ops)
		}
	}
	// Ops a binder never saw (none today, but keep the graph total), or
	// every op of the pre-merge graph.
	for _, o := range ops {
		if _, ok := g.OfOp.Lookup(o); !ok {
			if single == nil {
				single = make([]*ir.Op, 0, nodes-len(slab))
			}
			single = append(single, o)
			newNode(single[len(single)-1 : len(single) : len(single)])
		}
	}

	// Edges: combine parallel dependences, drop self-loops created by
	// merging. Each node sums its incoming wires per producer node in
	// wires, indexed by node ID; touched[id] == to.ID+1 marks the producers
	// the current node has seen. Every In list is in producer-ID order, and
	// filling the Out lists from the In lists in node order puts every Out
	// list in consumer-ID order. There are at most as many edges as
	// operands of the nodes' ops, so the edge slab never grows and its
	// pointers stay valid.
	operands := 0
	for _, n := range g.Nodes {
		for _, o := range n.Ops {
			operands += len(o.Operands)
		}
	}
	wires := make([]int, len(g.Nodes))
	touched := make([]int, len(g.Nodes))
	outDeg := make([]int, len(g.Nodes))
	edges := make([]Edge, 0, operands)
	inBack := make([]*Edge, operands)
	var from []int
	for _, to := range g.Nodes {
		from = from[:0]
		for _, o := range to.Ops {
			for _, e := range o.Operands {
				f, ok := g.OfOp.Lookup(e.Def)
				if !ok || f == to {
					continue
				}
				if touched[f.ID] != to.ID+1 {
					touched[f.ID] = to.ID + 1
					wires[f.ID] = 0
					from = append(from, f.ID)
				}
				wires[f.ID] += e.Bits
			}
		}
		if len(from) == 0 {
			continue
		}
		slices.Sort(from)
		first := len(edges)
		to.In = inBack[first : first+len(from) : first+len(from)]
		for i, id := range from {
			edges = append(edges, Edge{From: g.Nodes[id], To: to, Wires: wires[id]})
			to.In[i] = &edges[first+i]
			outDeg[id]++
		}
	}
	outBack := make([]*Edge, len(edges))
	next := 0
	for _, n := range g.Nodes {
		if d := outDeg[n.ID]; d > 0 {
			n.Out = outBack[next : next : next+d]
			next += d
		}
	}
	for _, to := range g.Nodes {
		for _, e := range to.In {
			e.From.Out = append(e.From.Out, e)
		}
	}
	return g
}

// Preds returns the distinct predecessor nodes.
func (n *Node) Preds() []*Node {
	out := make([]*Node, 0, len(n.In))
	for _, e := range n.In {
		out = append(out, e.From)
	}
	return out
}

// Succs returns the distinct successor nodes.
func (n *Node) Succs() []*Node {
	out := make([]*Node, 0, len(n.Out))
	for _, e := range n.Out {
		out = append(out, e.To)
	}
	return out
}

// Hop direction selectors for NeighborsK.
const (
	// DirPred walks edges backwards (towards producers).
	DirPred = iota
	// DirSucc walks edges forwards (towards consumers).
	DirSucc
	// DirBoth walks both directions.
	DirBoth
)

// NeighborsK returns the distinct nodes reachable from n within at most k
// hops in the given direction, excluding n itself. k=1 gives the one-hop
// neighborhood; the paper's "after including two-hop neighbors" features
// use k=2.
func (n *Node) NeighborsK(k, dir int) []*Node {
	seen := map[*Node]bool{n: true}
	frontier := []*Node{n}
	var out []*Node
	for hop := 0; hop < k; hop++ {
		var next []*Node
		for _, cur := range frontier {
			if dir == DirPred || dir == DirBoth {
				for _, e := range cur.In {
					if !seen[e.From] {
						seen[e.From] = true
						next = append(next, e.From)
						out = append(out, e.From)
					}
				}
			}
			if dir == DirSucc || dir == DirBoth {
				for _, e := range cur.Out {
					if !seen[e.To] {
						seen[e.To] = true
						next = append(next, e.To)
						out = append(out, e.To)
					}
				}
			}
		}
		frontier = next
	}
	return out
}

// EdgeStatsK aggregates the wire weights of all edges incident to the k-hop
// neighborhood of n (edges with at least one endpoint in the neighborhood
// or at n): total weight, edge count, and the maximum single edge.
func (n *Node) EdgeStatsK(k int) (total, count, max int) {
	nodes := append([]*Node{n}, n.NeighborsK(k, DirBoth)...)
	inSet := make(map[*Node]bool, len(nodes))
	for _, x := range nodes {
		inSet[x] = true
	}
	seen := make(map[*Edge]bool)
	for _, x := range nodes {
		for _, e := range x.In {
			if !seen[e] && (inSet[e.From] || inSet[e.To]) {
				seen[e] = true
				total += e.Wires
				count++
				if e.Wires > max {
					max = e.Wires
				}
			}
		}
		for _, e := range x.Out {
			if !seen[e] && (inSet[e.From] || inSet[e.To]) {
				seen[e] = true
				total += e.Wires
				count++
				if e.Wires > max {
					max = e.Wires
				}
			}
		}
	}
	return total, count, max
}
