package rtl

// LCA returns the lowest common ancestor of the given instance nodes in
// the instance tree, or nil for an empty slice. For a single node it
// returns that node's parent if it has one (the enclosing module is the
// natural insertion point), otherwise the node itself.
func LCA(nodes []*InstanceNode) *InstanceNode {
	if len(nodes) == 0 {
		return nil
	}
	depth := func(n *InstanceNode) int {
		d := 0
		for n.Parent != nil {
			d++
			n = n.Parent
		}
		return d
	}
	cur := nodes[0]
	if len(nodes) == 1 {
		if cur.Parent != nil {
			return cur.Parent
		}
		return cur
	}
	for _, n := range nodes[1:] {
		a, b := cur, n
		da, db := depth(a), depth(b)
		for da > db {
			a = a.Parent
			da--
		}
		for db > da {
			b = b.Parent
			db--
		}
		for a != b {
			a = a.Parent
			b = b.Parent
		}
		cur = a
	}
	return cur
}

// InsertionPoint returns the instance under which an eFPGA absorbing the
// given instances should be placed: the lowest common ancestor of the
// redacted instances (equivalently, their nearest common dominator in
// the hierarchy tree).
func InsertionPoint(nodes []*InstanceNode) *InstanceNode {
	if len(nodes) == 0 {
		return nil
	}
	lca := LCA(nodes)
	// If the LCA is itself one of the redacted instances, insert in its
	// parent.
	for _, n := range nodes {
		if n == lca && lca.Parent != nil {
			return lca.Parent
		}
	}
	return lca
}
