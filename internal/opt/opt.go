// Package opt implements netlist optimization: constant propagation,
// structural hashing, peephole simplification, sequential sweeping of
// constant flip-flops, and dead-code elimination. It plays the role the
// RTL/logic optimization steps of Yosys play inside the OpenFPGA flow
// the paper relies on.
package opt

import (
	"slices"

	"alice/internal/netlist"
)

// maxRebuilds bounds the rebuilds Optimize runs.
const maxRebuilds = 8

// Optimize returns a semantically equivalent netlist with redundant
// logic removed. Primary inputs are preserved (including unused ones) so
// the module interface is unchanged; dead internal logic and flip-flops
// are dropped, shared subexpressions are merged, and flip-flops whose D
// input is constant 0 are replaced by the constant (their reset value).
// It rebuilds the netlist until Stop says to stop.
func Optimize(n *netlist.Netlist) *netlist.Netlist {
	cur := Tagged{N: n}
	for k := 1; ; k++ {
		prev := cur
		cur = rebuild(prev)
		if stops(k, len(prev.N.Nodes), len(cur.N.Nodes)) {
			return cur.N
		}
	}
}

// stops reports whether Optimize ends with rebuild k, which turned a
// netlist of prev nodes into one of cur nodes.
func stops(k, prev, cur int) bool {
	return k == maxRebuilds || k >= 2 && prev == cur
}

// Stop returns the number of the rebuild Optimize returns for a
// netlist whose k-th rebuild has count(k) nodes: the first rebuild,
// from the second on, that leaves the count unchanged, or the eighth.
func Stop(count func(k int) int) int {
	k := 2
	for !stops(k, count(k-1), count(k)) {
		k++
	}
	return k
}

// Tagged is a netlist with one tag per node, or none when Tags is nil.
// A rebuild gives each node it creates the tag of the node it was
// rebuilt from; what the tags mean is up to the caller.
type Tagged struct {
	N    *netlist.Netlist
	Tags []uint8
}

// Rebuilds returns the rebuilds Optimize runs on t.N, the k-th at index
// k-1, with their tags carried. It ends after the eighth, or once a
// rebuild reproduces the one before it, tags included: every later
// rebuild would reproduce it too. Optimize(t.N) is rebuild k = Stop of
// their node counts, where rebuilds past the end repeat the last.
//
// A rebuild emits the primary inputs, then the flip-flops, then the
// gates, each section in the order of the nodes they come from.
func Rebuilds(t Tagged) []Tagged {
	var out []Tagged
	for k := 1; k <= maxRebuilds; k++ {
		next := rebuild(t)
		if k >= 2 && sameTagged(t, next) {
			break
		}
		out = append(out, next)
		t = next
	}
	return out
}

// sameTagged reports whether two rebuilds of one netlist are identical.
// Rebuilds keep the port names, so the ids and tags decide.
func sameTagged(a, b Tagged) bool {
	return slices.Equal(a.N.Nodes, b.N.Nodes) && slices.Equal(a.N.PIs, b.N.PIs) &&
		slices.Equal(a.N.POs, b.N.POs) && slices.Equal(a.N.DFFs, b.N.DFFs) &&
		slices.Equal(a.Tags, b.Tags)
}

// rebuild reconstructs the netlist through a Builder, visiting only live
// nodes (reachable from primary outputs through combinational edges and
// flip-flop D inputs), and carries tags when t has them.
func rebuild(t Tagged) Tagged {
	n := t.N
	live := markLive(n)
	bd := netlist.NewBuilder(n.Name)
	nmap := make([]int32, len(n.Nodes))
	for i := range nmap {
		nmap[i] = -1
	}
	nmap[0] = 0
	nmap[1] = 1
	var tags []uint8
	if t.Tags != nil {
		tags = append(make([]uint8, 0, len(n.Nodes)), t.Tags[0], t.Tags[1])
	}
	// tag gives the nodes created since the last call the tag of src.
	tag := func(src int32) {
		for t.Tags != nil && len(tags) < len(bd.N.Nodes) {
			tags = append(tags, t.Tags[src])
		}
	}

	// Preserve the full PI interface in order.
	for i, pi := range n.PIs {
		nmap[pi] = bd.Input(n.PINames[i])
		tag(pi)
	}
	// Create live DFFs up front; a DFF whose D input is already constant
	// 0 is replaced by const0 (it can never leave its reset value).
	for _, d := range n.DFFs {
		if !live[d] {
			continue
		}
		if n.Nodes[d].In[0] == 0 {
			nmap[d] = 0
			continue
		}
		nmap[d] = bd.DFF()
		tag(d)
	}
	// Rebuild live combinational nodes in (topological) index order.
	for i, nd := range n.Nodes {
		if !live[i] || nmap[i] != -1 {
			continue
		}
		switch nd.Op {
		case netlist.Not:
			nmap[i] = bd.Not(nmap[nd.In[0]])
		case netlist.And:
			nmap[i] = bd.And(nmap[nd.In[0]], nmap[nd.In[1]])
		case netlist.Or:
			nmap[i] = bd.Or(nmap[nd.In[0]], nmap[nd.In[1]])
		case netlist.Xor:
			nmap[i] = bd.Xor(nmap[nd.In[0]], nmap[nd.In[1]])
		case netlist.Mux:
			nmap[i] = bd.Mux(nmap[nd.In[0]], nmap[nd.In[1]], nmap[nd.In[2]])
		case netlist.Input:
			// Dead input already handled above.
		}
		tag(int32(i))
	}
	// Connect DFF D inputs.
	for _, d := range n.DFFs {
		if !live[d] || nmap[d] == 0 {
			continue
		}
		bd.SetD(nmap[d], nmap[n.Nodes[d].In[0]])
	}
	for i, po := range n.POs {
		bd.Output(n.PONames[i], nmap[po])
	}
	return Tagged{N: bd.N, Tags: tags}
}

// markLive returns the set of nodes reachable from the primary outputs,
// following combinational fan-ins and flip-flop D inputs.
func markLive(n *netlist.Netlist) []bool {
	live := make([]bool, len(n.Nodes))
	live[0], live[1] = true, true
	var stack []int32
	push := func(id int32) {
		if id >= 0 && !live[id] {
			live[id] = true
			stack = append(stack, id)
		}
	}
	for _, po := range n.POs {
		push(po)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := n.Nodes[id]
		for k := 0; k < nd.Op.Arity(); k++ {
			push(nd.In[k])
		}
	}
	return live
}
