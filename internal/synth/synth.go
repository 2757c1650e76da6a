// Package synth lowers an elaborated RTL design to the bit-level gate
// netlist of package netlist: it flattens the instance hierarchy,
// bit-blasts vectors, builds combinational logic for expressions and
// always blocks, infers flip-flops from edge-triggered blocks
// (recognizing the asynchronous-reset idiom), and unrolls constant-bound
// for loops. Together with opt and techmap it replaces the Yosys step of
// the OpenFPGA flow used by the ALICE paper.
package synth

import (
	"fmt"
	"sort"

	"alice/internal/netlist"
	"alice/internal/rtl"
	"alice/internal/verilog"
)

// unassigned marks a net bit with no value yet; the bit may be filled by
// another driver item. latchMarker never escapes symbolic execution.
const unassigned = int32(-1)

// Error is a synthesis error annotated with the instance path.
type Error struct {
	Path string
	Msg  string
}

func (e *Error) Error() string {
	if e.Path == "" {
		return "synth: " + e.Msg
	}
	return fmt.Sprintf("synth: %s: %s", e.Path, e.Msg)
}

// PortVec maps a multi-bit port to positions in the netlist PI or PO
// lists (LSB first).
type PortVec struct {
	Name  string
	Width int
	Bits  []int
}

// Phases is the number of node-creation phases of synthesis. It creates
// the netlist's nodes in this order:
//  1. the frame of every instance, with its flip-flops;
//  2. the top module's outputs, resolved in port order;
//  3. the root frame's remaining items (inputs that no output reads);
//  4. every other frame's remaining items, in frame order.
const Phases = 4

// Result is a synthesized design: the netlist plus the port mapping and
// the clock/reset signals that were absorbed into the implicit clock and
// global reset of the netlist model.
type Result struct {
	Netlist *netlist.Netlist
	Inputs  []PortVec // data inputs, in port order (clock/reset excluded)
	Outputs []PortVec
	Clock   string   // top-level clock signal name, "" if combinational
	Resets  []string // async reset signal names absorbed by the global reset
	// PhaseEnds[p] is the netlist's node count when phase p+1 (see
	// Phases) ends, so node i belongs to the first phase whose end
	// exceeds i.
	PhaseEnds [Phases]int
}

// itemKind discriminates driver items within a frame.
type itemKind int

const (
	itemAssign itemKind = iota
	itemComb
	itemSeq
	itemInstOut // instance output connections into parent nets
	itemPortIn  // this frame's input ports, driven by the parent
)

type frameItem struct {
	kind   itemKind
	assign *verilog.ContAssign
	always *verilog.Always
	seq    *seqInfo
	inst   *verilog.Instance // for itemInstOut
	child  *frame            // for itemInstOut
	// port narrows itemPortIn / itemInstOut to a single port so that
	// feedback through an instance (an input expression reading another
	// output of the same instance) does not look like a loop.
	port string
	// connIdx is the connection index for itemInstOut.
	connIdx int
}

// seqInfo caches the analysis of an edge-triggered always block.
type seqInfo struct {
	clockName string
	resetName string       // "" if none
	resetBody verilog.Stmt // the reset branch (constants)
	mainBody  verilog.Stmt // the non-reset logic
	// regs maps each assigned register to its flip-flop bits; inverted
	// marks bits whose reset value is 1 (stored inverted).
	regs     map[string][]regBit
	memNames []string
}

type regBit struct {
	dff      int32
	q        int32 // dff or Not(dff) when inverted
	inverted bool
}

type connInfo struct {
	port verilog.Dir
	expr verilog.Expr
}

// frame is the per-instance synthesis context.
type frame struct {
	node       *rtl.InstanceNode
	env        verilog.Env
	netInfo    map[string]*rtl.NetInfo
	nets       map[string][]int32
	mems       map[string][][]int32 // name -> depth x width of q bits
	memRegs    map[string][][]regBit
	items      []frameItem
	executed   []bool
	inProgress []bool
	netDrivers map[string][]int
	parent     *frame
	parentInst *verilog.Instance // how the parent instantiated us
	children   map[string]*frame
}

type synthesizer struct {
	bd        *netlist.Builder
	design    *rtl.Design
	frames    []*frame
	clockPIs  map[int32]string
	resetPIs  map[int32]string
	warnings  []string
	loopLimit int
	opts      Options
}

// Options tunes synthesis behaviour.
type Options struct {
	// UnifyClocks treats multiple clock inputs as one synchronous clock
	// domain instead of failing. The redaction flow uses this for
	// cluster wrappers, where every member module exposes its own clock
	// pin but all of them are driven by the same chip clock.
	UnifyClocks bool
}

// Synthesize lowers the whole elaborated design rooted at its top module.
func Synthesize(d *rtl.Design) (*Result, error) {
	return SynthesizeOpts(d, Options{})
}

// SynthesizeOpts is Synthesize with explicit options.
func SynthesizeOpts(d *rtl.Design, o Options) (*Result, error) {
	s := &synthesizer{
		bd:        netlist.NewBuilder(d.Top.Name),
		design:    d,
		clockPIs:  make(map[int32]string),
		resetPIs:  make(map[int32]string),
		loopLimit: 1 << 16,
		opts:      o,
	}
	var ends [Phases]int
	root, err := s.buildFrame(d.Root, nil, nil)
	if err != nil {
		return nil, err
	}
	ends[0] = len(s.bd.N.Nodes)
	// Resolve every output port of the top module.
	var outputs []PortVec
	poIndex := 0
	for _, p := range root.node.Ports {
		if p.Dir != verilog.Output {
			continue
		}
		bits, err := s.resolveNet(root, p.Name)
		if err != nil {
			return nil, err
		}
		pv := PortVec{Name: p.Name, Width: p.Width}
		for i := 0; i < p.Width; i++ {
			if bits[i] == unassigned {
				return nil, &Error{root.node.Path, fmt.Sprintf("output %s bit %d is undriven", p.Name, i)}
			}
			s.bd.Output(bitName(p.Name, p.Width, i), bits[i])
			pv.Bits = append(pv.Bits, poIndex)
			poIndex++
		}
		outputs = append(outputs, pv)
	}
	ends[1] = len(s.bd.N.Nodes)
	// Force execution of everything else (fills DFF D inputs, flags
	// errors in dead logic too). The root frame comes first.
	for i, f := range s.frames {
		for idx := range f.items {
			if err := s.execItem(f, idx); err != nil {
				return nil, err
			}
		}
		if i == 0 {
			ends[2] = len(s.bd.N.Nodes)
		}
	}
	ends[3] = len(s.bd.N.Nodes)
	if err := s.checkSingleClock(); err != nil {
		return nil, err
	}
	res := &Result{Netlist: s.bd.N, Outputs: outputs, PhaseEnds: ends}
	s.stripClockResets(root, res)
	if err := res.Netlist.Validate(); err != nil {
		return nil, err
	}
	return res, nil
}

// buildFrame creates the frame tree for an instance and registers its
// driver items.
func (s *synthesizer) buildFrame(node *rtl.InstanceNode, parent *frame, parentInst *verilog.Instance) (*frame, error) {
	nets, err := rtl.ResolveNets(node.Module, node.Env)
	if err != nil {
		return nil, err
	}
	f := &frame{
		node:       node,
		env:        node.Env,
		netInfo:    nets,
		nets:       make(map[string][]int32),
		mems:       make(map[string][][]int32),
		memRegs:    make(map[string][][]regBit),
		netDrivers: make(map[string][]int),
		parent:     parent,
		parentInst: parentInst,
		children:   make(map[string]*frame),
	}
	s.frames = append(s.frames, f)
	for name, ni := range nets {
		if ni.Depth == 0 {
			bits := make([]int32, ni.Width)
			for i := range bits {
				bits[i] = unassigned
			}
			f.nets[name] = bits
		}
	}

	addItem := func(it frameItem, targets []string) int {
		idx := len(f.items)
		f.items = append(f.items, it)
		f.executed = append(f.executed, false)
		f.inProgress = append(f.inProgress, false)
		for _, t := range targets {
			f.netDrivers[t] = append(f.netDrivers[t], idx)
		}
		return idx
	}

	// Input ports are driven by the parent (or are PIs at the root),
	// one item per port so feedback through a sibling output is legal.
	for _, p := range node.Ports {
		if p.Dir == verilog.Inout {
			return nil, &Error{node.Path, fmt.Sprintf("inout port %s not supported", p.Name)}
		}
		if p.Dir == verilog.Input {
			addItem(frameItem{kind: itemPortIn, port: p.Name}, []string{p.Name})
		}
	}

	childIdx := 0
	for _, it := range node.Module.AST.Items {
		switch x := it.(type) {
		case *verilog.ContAssign:
			targets, _ := lvalueTargetNets(x.LHS)
			addItem(frameItem{kind: itemAssign, assign: x}, targets)
		case *verilog.Always:
			if x.Initial {
				return nil, &Error{node.Path, "initial blocks are not synthesizable"}
			}
			if isSequential(x) {
				si, err := s.analyzeSeq(f, x)
				if err != nil {
					return nil, err
				}
				addItem(frameItem{kind: itemSeq, always: x, seq: si}, nil)
			} else {
				targets := assignedNets(x.Body)
				addItem(frameItem{kind: itemComb, always: x}, targets)
			}
		case *verilog.Instance:
			childNode := node.Children[childIdx]
			childIdx++
			cf, err := s.buildFrame(childNode, f, x)
			if err != nil {
				return nil, err
			}
			f.children[x.Name] = cf
			// One item per connected output port of the child.
			for i, conn := range x.Conns {
				if conn.Expr == nil {
					continue
				}
				port := connPort(childNode, x, i)
				if port != nil && port.Dir == verilog.Output {
					ts, _ := lvalueTargetNets(conn.Expr)
					addItem(frameItem{kind: itemInstOut, inst: x, child: cf, connIdx: i, port: port.Name}, ts)
				}
			}
		}
	}
	return f, nil
}

// connPort resolves which child port the i-th connection refers to.
func connPort(child *rtl.InstanceNode, inst *verilog.Instance, i int) *rtl.PortInfo {
	c := inst.Conns[i]
	if c.Port != "" {
		for k := range child.Ports {
			if child.Ports[k].Name == c.Port {
				return &child.Ports[k]
			}
		}
		return nil
	}
	if i < len(child.Ports) {
		return &child.Ports[i]
	}
	return nil
}

// resolveNet returns the current bit values of a net, executing all of
// its pending driver items first.
func (s *synthesizer) resolveNet(f *frame, name string) ([]int32, error) {
	bits, ok := f.nets[name]
	if !ok {
		return nil, &Error{f.node.Path, fmt.Sprintf("unknown net %q", name)}
	}
	for _, idx := range f.netDrivers[name] {
		if err := s.execItem(f, idx); err != nil {
			return nil, err
		}
	}
	return bits, nil
}

func (s *synthesizer) execItem(f *frame, idx int) error {
	if f.executed[idx] {
		return nil
	}
	if f.inProgress[idx] {
		// Re-entrant execution: either a genuine combinational loop or a
		// multi-item bit split; callers detect missing bits themselves.
		return nil
	}
	f.inProgress[idx] = true
	defer func() { f.inProgress[idx] = false }()
	it := &f.items[idx]
	var err error
	switch it.kind {
	case itemPortIn:
		err = s.execPortIn(f, it.port)
	case itemAssign:
		err = s.execAssign(f, it.assign)
	case itemComb:
		err = s.execComb(f, it.always)
	case itemSeq:
		err = s.execSeq(f, it.seq)
	case itemInstOut:
		err = s.execInstOut(f, it)
	}
	if err != nil {
		return err
	}
	f.executed[idx] = true
	return nil
}

// execPortIn fills one input port net of this frame from the parent's
// connection expression (or creates primary inputs at the root).
func (s *synthesizer) execPortIn(f *frame, portName string) error {
	var port *rtl.PortInfo
	for i := range f.node.Ports {
		if f.node.Ports[i].Name == portName {
			port = &f.node.Ports[i]
			break
		}
	}
	if port == nil {
		return &Error{f.node.Path, fmt.Sprintf("unknown port %q", portName)}
	}
	bits := f.nets[port.Name]
	if f.parent == nil {
		for i := 0; i < port.Width; i++ {
			bits[i] = s.bd.Input(bitName(port.Name, port.Width, i))
		}
		return nil
	}
	inst := f.parentInst
	for i, conn := range inst.Conns {
		p := connPort(f.node, inst, i)
		if p == nil {
			return &Error{f.parent.node.Path, fmt.Sprintf("instance %s: cannot resolve connection %d", inst.Name, i)}
		}
		if p.Name != port.Name {
			continue
		}
		if conn.Expr == nil {
			for k := range bits {
				bits[k] = 0 // explicitly unconnected input ties low
			}
			return nil
		}
		vals, err := s.exprBits(f.parent, conn.Expr, port.Width)
		if err != nil {
			return err
		}
		vals = extend(vals, port.Width)
		copy(bits, vals[:port.Width])
		return nil
	}
	s.warnings = append(s.warnings,
		fmt.Sprintf("%s: input %s unconnected, tied to 0", f.node.Path, port.Name))
	for k := range bits {
		bits[k] = 0
	}
	return nil
}

// execAssign synthesizes a continuous assignment.
func (s *synthesizer) execAssign(f *frame, a *verilog.ContAssign) error {
	refs, err := s.destructureLValue(f, a.LHS)
	if err != nil {
		return err
	}
	rhs, err := s.exprBits(f, a.RHS, len(refs))
	if err != nil {
		return err
	}
	rhs = extend(rhs, len(refs))
	for i, ref := range refs {
		bits := f.nets[ref.net]
		if bits[ref.bit] != unassigned && f.netInfo[ref.net].Kind == verilog.Wire {
			return &Error{f.node.Path, fmt.Sprintf("net %s bit %d has multiple drivers", ref.net, ref.bit)}
		}
		bits[ref.bit] = rhs[i]
	}
	return nil
}

// execInstOut copies one resolved child output port into the parent's
// connection target.
func (s *synthesizer) execInstOut(f *frame, it *frameItem) error {
	child := it.child
	conn := it.inst.Conns[it.connIdx]
	port := connPort(child.node, it.inst, it.connIdx)
	if port == nil || port.Dir != verilog.Output || conn.Expr == nil {
		return nil
	}
	src, err := s.resolveNet(child, port.Name)
	if err != nil {
		return err
	}
	for b, v := range src {
		if v == unassigned {
			return &Error{child.node.Path, fmt.Sprintf("output port %s bit %d undriven", port.Name, b)}
		}
	}
	refs, err := s.destructureLValue(f, conn.Expr)
	if err != nil {
		return err
	}
	src = extend(src, len(refs))
	for i, ref := range refs {
		bits := f.nets[ref.net]
		if bits[ref.bit] != unassigned && f.netInfo[ref.net].Kind == verilog.Wire {
			return &Error{f.node.Path, fmt.Sprintf("net %s bit %d has multiple drivers", ref.net, ref.bit)}
		}
		bits[ref.bit] = src[i]
	}
	return nil
}

// bitRef addresses one bit of a named net.
type bitRef struct {
	net string
	bit int
}

// destructureLValue resolves an assignment target to per-bit references,
// LSB first. Only constant indices are allowed here (memory writes with
// variable index are handled inside always blocks).
func (s *synthesizer) destructureLValue(f *frame, e verilog.Expr) ([]bitRef, error) {
	switch x := e.(type) {
	case *verilog.Ident:
		ni, ok := f.netInfo[x.Name]
		if !ok {
			return nil, &Error{f.node.Path, fmt.Sprintf("assignment to unknown net %q", x.Name)}
		}
		if ni.Depth > 0 {
			return nil, &Error{f.node.Path, fmt.Sprintf("cannot assign whole memory %q", x.Name)}
		}
		refs := make([]bitRef, ni.Width)
		for i := range refs {
			refs[i] = bitRef{x.Name, i}
		}
		return refs, nil
	case *verilog.Index:
		id, ok := x.X.(*verilog.Ident)
		if !ok {
			return nil, &Error{f.node.Path, "unsupported nested index in assignment target"}
		}
		ni, ok := f.netInfo[id.Name]
		if !ok {
			return nil, &Error{f.node.Path, fmt.Sprintf("assignment to unknown net %q", id.Name)}
		}
		iv, err := verilog.EvalConst(x.Idx, f.env)
		if err != nil {
			return nil, &Error{f.node.Path, fmt.Sprintf("non-constant bit index on %s in structural assignment", id.Name)}
		}
		bit, err := bitOffset(ni, iv)
		if err != nil {
			return nil, &Error{f.node.Path, err.Error()}
		}
		return []bitRef{{id.Name, bit}}, nil
	case *verilog.Slice:
		id, ok := x.X.(*verilog.Ident)
		if !ok {
			return nil, &Error{f.node.Path, "unsupported nested slice in assignment target"}
		}
		ni, ok := f.netInfo[id.Name]
		if !ok {
			return nil, &Error{f.node.Path, fmt.Sprintf("assignment to unknown net %q", id.Name)}
		}
		msb, err := verilog.EvalConst(x.MSB, f.env)
		if err != nil {
			return nil, &Error{f.node.Path, err.Error()}
		}
		lsb, err := verilog.EvalConst(x.LSB, f.env)
		if err != nil {
			return nil, &Error{f.node.Path, err.Error()}
		}
		lo, err := bitOffset(ni, lsb)
		if err != nil {
			return nil, &Error{f.node.Path, err.Error()}
		}
		hi, err := bitOffset(ni, msb)
		if err != nil {
			return nil, &Error{f.node.Path, err.Error()}
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		refs := make([]bitRef, 0, hi-lo+1)
		for i := lo; i <= hi; i++ {
			refs = append(refs, bitRef{id.Name, i})
		}
		return refs, nil
	case *verilog.Concat:
		// {a, b}: a is the MSB part; LSB-first means b's bits come first.
		var refs []bitRef
		for i := len(x.Parts) - 1; i >= 0; i-- {
			sub, err := s.destructureLValue(f, x.Parts[i])
			if err != nil {
				return nil, err
			}
			refs = append(refs, sub...)
		}
		return refs, nil
	}
	return nil, &Error{f.node.Path, fmt.Sprintf("unsupported assignment target %T", e)}
}

// bitOffset converts a Verilog bit index into a 0-based LSB-first offset
// honoring the declared range.
func bitOffset(ni *rtl.NetInfo, idx int64) (int, error) {
	lo, hi := ni.LSB, ni.MSB
	if lo > hi {
		lo, hi = hi, lo
	}
	if ni.Width == 1 && ni.MSB == 0 && ni.LSB == 0 && idx == 0 {
		return 0, nil
	}
	if idx < lo || idx > hi {
		return 0, fmt.Errorf("bit index %d out of range [%d:%d] for %s", idx, ni.MSB, ni.LSB, ni.Name)
	}
	return int(idx - lo), nil
}

// extend zero-extends (or keeps) bits to at least w entries.
func extend(bits []int32, w int) []int32 {
	for len(bits) < w {
		bits = append(bits, 0)
	}
	return bits
}

func bitName(port string, width, i int) string {
	if width == 1 {
		return port
	}
	return fmt.Sprintf("%s[%d]", port, i)
}

// isSequential reports whether an always block is edge triggered.
func isSequential(a *verilog.Always) bool {
	for _, ev := range a.Events {
		if ev.Edge != verilog.EdgeNone {
			return true
		}
	}
	return false
}

// assignedNets statically collects every net assigned in a statement.
func assignedNets(st verilog.Stmt) []string {
	seen := make(map[string]bool)
	var out []string
	var add func(e verilog.Expr)
	add = func(e verilog.Expr) {
		switch x := e.(type) {
		case *verilog.Ident:
			if !seen[x.Name] {
				seen[x.Name] = true
				out = append(out, x.Name)
			}
		case *verilog.Index:
			add(x.X)
		case *verilog.Slice:
			add(x.X)
		case *verilog.Concat:
			for _, p := range x.Parts {
				add(p)
			}
		}
	}
	var walk func(verilog.Stmt)
	walk = func(st verilog.Stmt) {
		switch x := st.(type) {
		case *verilog.Block:
			for _, s := range x.Stmts {
				walk(s)
			}
		case *verilog.If:
			walk(x.Then)
			if x.Else != nil {
				walk(x.Else)
			}
		case *verilog.Case:
			for _, it := range x.Items {
				walk(it.Body)
			}
		case *verilog.For:
			if x.Init != nil {
				add(x.Init.LHS)
			}
			if x.Step != nil {
				add(x.Step.LHS)
			}
			walk(x.Body)
		case *verilog.Assign:
			add(x.LHS)
		}
	}
	walk(st)
	return out
}

// lvalueTargetNets lists nets written by a structural assignment target.
func lvalueTargetNets(e verilog.Expr) (targets []string, ok bool) {
	switch x := e.(type) {
	case *verilog.Ident:
		return []string{x.Name}, true
	case *verilog.Index:
		return lvalueTargetNets(x.X)
	case *verilog.Slice:
		return lvalueTargetNets(x.X)
	case *verilog.Concat:
		for _, p := range x.Parts {
			t, o := lvalueTargetNets(p)
			if !o {
				return nil, false
			}
			targets = append(targets, t...)
		}
		return targets, true
	}
	return nil, false
}

// checkSingleClock verifies all sequential logic shares one clock.
func (s *synthesizer) checkSingleClock() error {
	if s.opts.UnifyClocks {
		return nil
	}
	if len(s.clockPIs) > 1 {
		var names []string
		for _, n := range s.clockPIs {
			names = append(names, n)
		}
		sort.Strings(names)
		return &Error{"", fmt.Sprintf("multiple clock domains are not supported: %v", names)}
	}
	return nil
}

// stripClockResets removes clock and reset primary inputs that have no
// data fanout, records their names, and fills the input port map.
func (s *synthesizer) stripClockResets(root *frame, res *Result) {
	n := s.bd.N
	fanout := make([]int, len(n.Nodes))
	for _, nd := range n.Nodes {
		for k := 0; k < nd.Op.Arity(); k++ {
			if nd.In[k] >= 0 {
				fanout[nd.In[k]]++
			}
		}
	}
	for _, po := range n.POs {
		fanout[po]++
	}
	drop := make(map[int32]bool)
	// Iterate clocks in PI order so the recorded Clock name (the first
	// clock input under UnifyClocks) does not depend on map iteration
	// order.
	clockIDs := make([]int32, 0, len(s.clockPIs))
	for pi := range s.clockPIs {
		clockIDs = append(clockIDs, pi)
	}
	sort.Slice(clockIDs, func(i, j int) bool { return clockIDs[i] < clockIDs[j] })
	for _, pi := range clockIDs {
		if res.Clock == "" {
			res.Clock = s.clockPIs[pi]
		}
		if fanout[pi] == 0 {
			drop[pi] = true
		}
	}
	var resets []string
	for pi, name := range s.resetPIs {
		resets = append(resets, name)
		if fanout[pi] == 0 {
			drop[pi] = true
		}
	}
	sort.Strings(resets)
	res.Resets = resets
	if len(drop) > 0 {
		var pis []int32
		var names []string
		for i, pi := range n.PIs {
			if !drop[pi] {
				pis = append(pis, pi)
				names = append(names, n.PINames[i])
			}
		}
		n.PIs, n.PINames = pis, names
	}
	// Build the input port map over the remaining PIs.
	pos := make(map[string]int, len(n.PINames))
	for i, nm := range n.PINames {
		pos[nm] = i
	}
	for _, p := range root.node.Ports {
		if p.Dir != verilog.Input {
			continue
		}
		pv := PortVec{Name: p.Name, Width: p.Width}
		complete := true
		for i := 0; i < p.Width; i++ {
			idx, ok := pos[bitName(p.Name, p.Width, i)]
			if !ok {
				complete = false
				break
			}
			pv.Bits = append(pv.Bits, idx)
		}
		if complete {
			res.Inputs = append(res.Inputs, pv)
		}
	}
}

// Warnings returns human-readable warnings from the last synthesis run.
func (s *synthesizer) Warnings() []string { return s.warnings }
