package netlist

// Builder constructs netlists with hash-consing (structural sharing) and
// constructor-level peephole simplification, so obviously redundant
// gates are never materialized.
type Builder struct {
	N     *Netlist
	cache map[nodeKey]int32
}

type nodeKey struct {
	op Op
	a  int32
	b  int32
	c  int32
}

// NewBuilder returns a builder over a fresh netlist.
func NewBuilder(name string) *Builder {
	return &Builder{N: New(name), cache: make(map[nodeKey]int32)}
}

// Const returns the constant node for the bit b.
func (bd *Builder) Const(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// Input appends a new primary input with the given name.
func (bd *Builder) Input(name string) int32 {
	id := bd.raw(Node{Op: Input, In: [3]int32{-1, -1, -1}})
	bd.N.PIs = append(bd.N.PIs, id)
	bd.N.PINames = append(bd.N.PINames, name)
	return id
}

// Output marks node id as a primary output with the given name.
func (bd *Builder) Output(name string, id int32) {
	bd.N.POs = append(bd.N.POs, id)
	bd.N.PONames = append(bd.N.PONames, name)
}

// DFF appends a D flip-flop whose D input may be set later with SetD.
func (bd *Builder) DFF() int32 {
	id := bd.raw(Node{Op: DFF, In: [3]int32{-1, -1, -1}})
	bd.N.DFFs = append(bd.N.DFFs, id)
	return id
}

// SetD connects the D input of a flip-flop.
func (bd *Builder) SetD(dff, d int32) {
	bd.N.Nodes[dff].In[0] = d
}

func (bd *Builder) raw(nd Node) int32 {
	id := int32(len(bd.N.Nodes))
	bd.N.Nodes = append(bd.N.Nodes, nd)
	return id
}

func (bd *Builder) hashed(op Op, a, b, c int32) int32 {
	k := nodeKey{op, a, b, c}
	if id, ok := bd.cache[k]; ok {
		return id
	}
	id := bd.raw(Node{Op: op, In: [3]int32{a, b, c}})
	bd.cache[k] = id
	return id
}

// Not returns ~x with double-negation and constant folding.
func (bd *Builder) Not(x int32) int32 {
	switch {
	case x == 0:
		return 1
	case x == 1:
		return 0
	case bd.N.Nodes[x].Op == Not:
		return bd.N.Nodes[x].In[0]
	}
	return bd.hashed(Not, x, -1, -1)
}

// And returns x & y with simplification.
func (bd *Builder) And(x, y int32) int32 {
	if x > y {
		x, y = y, x
	}
	switch {
	case x == 0:
		return 0
	case x == 1:
		return y
	case x == y:
		return x
	case bd.isComplement(x, y):
		return 0
	}
	return bd.hashed(And, x, y, -1)
}

// Or returns x | y with simplification.
func (bd *Builder) Or(x, y int32) int32 {
	if x > y {
		x, y = y, x
	}
	switch {
	case x == 1:
		return 1
	case x == 0:
		return y
	case x == y:
		return x
	case bd.isComplement(x, y):
		return 1
	}
	return bd.hashed(Or, x, y, -1)
}

// Xor returns x ^ y with simplification.
func (bd *Builder) Xor(x, y int32) int32 {
	if x > y {
		x, y = y, x
	}
	switch {
	case x == y:
		return 0
	case x == 0:
		return y
	case x == 1:
		return bd.Not(y)
	case bd.isComplement(x, y):
		return 1
	}
	return bd.hashed(Xor, x, y, -1)
}

// Xnor returns ~(x ^ y).
func (bd *Builder) Xnor(x, y int32) int32 { return bd.Not(bd.Xor(x, y)) }

// Mux returns sel ? d1 : d0 with simplification.
func (bd *Builder) Mux(sel, d0, d1 int32) int32 {
	switch {
	case sel == 0:
		return d0
	case sel == 1:
		return d1
	case d0 == d1:
		return d0
	case d0 == 0 && d1 == 1:
		return sel
	case d0 == 1 && d1 == 0:
		return bd.Not(sel)
	case d0 == 0:
		return bd.And(sel, d1)
	case d1 == 0:
		return bd.And(bd.Not(sel), d0)
	case d0 == 1:
		return bd.Or(bd.Not(sel), d1)
	case d1 == 1:
		return bd.Or(sel, d0)
	case d0 == sel:
		return bd.And(sel, d1) // sel?d1:sel == sel&d1
	case d1 == sel:
		return bd.Or(sel, d0) // sel?sel:d0 == sel|d0
	}
	return bd.hashed(Mux, sel, d0, d1)
}

// isComplement reports whether y == Not(x) or x == Not(y) structurally.
func (bd *Builder) isComplement(x, y int32) bool {
	nx := bd.N.Nodes[x]
	if nx.Op == Not && nx.In[0] == y {
		return true
	}
	ny := bd.N.Nodes[y]
	return ny.Op == Not && ny.In[0] == x
}

// ReduceAnd returns the AND of all bits (1 for an empty slice).
func (bd *Builder) ReduceAnd(bits []int32) int32 {
	return bd.reduce(bits, 1, bd.And)
}

// ReduceOr returns the OR of all bits (0 for an empty slice).
func (bd *Builder) ReduceOr(bits []int32) int32 {
	return bd.reduce(bits, 0, bd.Or)
}

// ReduceXor returns the XOR of all bits (0 for an empty slice).
func (bd *Builder) ReduceXor(bits []int32) int32 {
	return bd.reduce(bits, 0, bd.Xor)
}

// reduce builds a balanced tree to keep depth logarithmic.
func (bd *Builder) reduce(bits []int32, empty int32, f func(a, b int32) int32) int32 {
	switch len(bits) {
	case 0:
		return empty
	case 1:
		return bits[0]
	}
	work := make([]int32, len(bits))
	copy(work, bits)
	for len(work) > 1 {
		var next []int32
		for i := 0; i+1 < len(work); i += 2 {
			next = append(next, f(work[i], work[i+1]))
		}
		if len(work)%2 == 1 {
			next = append(next, work[len(work)-1])
		}
		work = next
	}
	return work[0]
}

// ConstBits materializes width constant nodes for the value v (LSB first).
func (bd *Builder) ConstBits(v uint64, width int) []int32 {
	out := make([]int32, width)
	for i := 0; i < width; i++ {
		if i < 64 && (v>>uint(i))&1 == 1 {
			out[i] = 1
		}
	}
	return out
}

// AddCarry builds a full adder over vectors a and b (equal length) with
// carry-in cin, returning sum bits and carry-out.
func (bd *Builder) AddCarry(a, b []int32, cin int32) (sum []int32, cout int32) {
	sum = make([]int32, len(a))
	c := cin
	for i := range a {
		axb := bd.Xor(a[i], b[i])
		sum[i] = bd.Xor(axb, c)
		c = bd.Or(bd.And(a[i], b[i]), bd.And(axb, c))
	}
	return sum, c
}
