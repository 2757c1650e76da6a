// Package rtl elaborates a parsed Verilog design: it resolves parameters
// and port widths, builds the module and instance hierarchy, computes the
// structural characteristics ALICE filters on (I/O pin counts), and
// provides the dataflow analysis that determines which modules affect
// selected outputs (Sec. 4 of the paper) together with the instance-tree
// lowest common ancestor used to pick eFPGA insertion points (Sec. 6).
package rtl

import (
	"fmt"
	"sort"

	"alice/internal/verilog"
)

// PortInfo is a resolved module port with a concrete width.
type PortInfo struct {
	Name  string
	Dir   verilog.Dir
	Width int
	MSB   int64
	LSB   int64
}

// NetInfo is a resolved wire/reg declaration. Depth is non-zero for 1-D
// memory arrays.
type NetInfo struct {
	Name  string
	Kind  verilog.NetKind
	Width int
	MSB   int64
	LSB   int64
	Depth int   // number of array elements (0 for plain nets)
	Base  int64 // lowest array index
}

// ModuleInfo is a module with resolved declarations under its default
// parameter values.
type ModuleInfo struct {
	Name   string
	AST    *verilog.Module
	Params verilog.Env
	Ports  []PortInfo
	Nets   map[string]*NetInfo
	Insts  []*verilog.Instance
}

// PinCount returns the total number of I/O pins of the module: the sum
// of all port widths. This is the structural metric ALICE checks against
// the eFPGA I/O capacity.
func (m *ModuleInfo) PinCount() int {
	n := 0
	for _, p := range m.Ports {
		n += p.Width
	}
	return n
}

// Port returns the named port, or nil.
func (m *ModuleInfo) Port(name string) *PortInfo {
	for i := range m.Ports {
		if m.Ports[i].Name == name {
			return &m.Ports[i]
		}
	}
	return nil
}

// InstanceNode is a node of the elaborated instance tree.
type InstanceNode struct {
	Name     string // instance name; top uses the module name
	Path     string // hierarchical path, e.g. "top.u_ctrl"
	Module   *ModuleInfo
	Env      verilog.Env // parameter environment (defaults + overrides)
	Ports    []PortInfo  // resolved under Env
	Parent   *InstanceNode
	Children []*InstanceNode
}

// PinCount returns the instance's I/O pin total under its parameter
// environment.
func (n *InstanceNode) PinCount() int {
	c := 0
	for _, p := range n.Ports {
		c += p.Width
	}
	return c
}

// Design is an elaborated design.
type Design struct {
	AST     *verilog.Design
	Top     *ModuleInfo
	Modules map[string]*ModuleInfo
	Root    *InstanceNode
	// AllInstances lists every node of the instance tree in preorder
	// (root first).
	AllInstances []*InstanceNode
}

// ElabError is an elaboration error.
type ElabError struct {
	Module string
	Msg    string
}

func (e *ElabError) Error() string {
	if e.Module == "" {
		return "rtl: " + e.Msg
	}
	return fmt.Sprintf("rtl: module %s: %s", e.Module, e.Msg)
}

func errf(mod, format string, args ...any) error {
	return &ElabError{mod, fmt.Sprintf(format, args...)}
}

// Elaborate resolves a parsed design. If topName is empty the top module
// is inferred as the unique module that is never instantiated.
func Elaborate(ast *verilog.Design, topName string) (*Design, error) {
	if len(ast.Modules) == 0 {
		return nil, errf("", "design has no modules")
	}
	d := &Design{AST: ast, Modules: make(map[string]*ModuleInfo)}
	for _, m := range ast.Modules {
		if _, dup := d.Modules[m.Name]; dup {
			return nil, errf(m.Name, "duplicate module definition")
		}
		mi, err := resolveModule(m)
		if err != nil {
			return nil, err
		}
		d.Modules[m.Name] = mi
	}
	if topName == "" {
		inferred, err := inferTop(d)
		if err != nil {
			return nil, err
		}
		topName = inferred
	}
	top, ok := d.Modules[topName]
	if !ok {
		return nil, errf("", "top module %q not found", topName)
	}
	d.Top = top
	root, err := d.elaborateInstance(top, top.Name, top.Name, top.Params, nil, 0)
	if err != nil {
		return nil, err
	}
	d.Root = root
	var walk func(n *InstanceNode)
	walk = func(n *InstanceNode) {
		d.AllInstances = append(d.AllInstances, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	return d, nil
}

// inferTop returns the unique module not instantiated by any other.
func inferTop(d *Design) (string, error) {
	instantiated := make(map[string]bool)
	for _, m := range d.Modules {
		for _, in := range m.Insts {
			instantiated[in.Module] = true
		}
	}
	var tops []string
	for name := range d.Modules {
		if !instantiated[name] {
			tops = append(tops, name)
		}
	}
	sort.Strings(tops)
	switch len(tops) {
	case 1:
		return tops[0], nil
	case 0:
		return "", errf("", "no top module: instantiation graph is cyclic")
	default:
		return "", errf("", "ambiguous top module, candidates: %v", tops)
	}
}

// resolveModule computes the default parameter environment, port widths,
// and net table of a module.
func resolveModule(m *verilog.Module) (*ModuleInfo, error) {
	mi := &ModuleInfo{
		Name:   m.Name,
		AST:    m,
		Params: make(verilog.Env),
		Nets:   make(map[string]*NetInfo),
	}
	for _, p := range m.Params {
		v, err := verilog.EvalConst(p.Value, mi.Params)
		if err != nil {
			return nil, errf(m.Name, "parameter %s: %v", p.Name, err)
		}
		mi.Params[p.Name] = v
	}
	ports, err := resolvePorts(m, mi.Params)
	if err != nil {
		return nil, err
	}
	mi.Ports = ports
	for _, p := range mi.Ports {
		kind := verilog.Wire
		if portIsReg(m, p.Name) {
			kind = verilog.Reg
		}
		mi.Nets[p.Name] = &NetInfo{Name: p.Name, Kind: kind, Width: p.Width, MSB: p.MSB, LSB: p.LSB}
	}
	for _, it := range m.Items {
		switch x := it.(type) {
		case *verilog.NetDecl:
			w, err := verilog.RangeWidth(x.Range, mi.Params)
			if err != nil {
				return nil, errf(m.Name, "net declaration: %v", err)
			}
			msb, lsb, err := verilog.RangeBounds(x.Range, mi.Params)
			if err != nil {
				return nil, errf(m.Name, "net declaration: %v", err)
			}
			for _, dn := range x.Names {
				ni := &NetInfo{Name: dn.Name, Kind: x.Kind, Width: w, MSB: msb, LSB: lsb}
				if dn.Array != nil {
					lo, hi, err := verilog.RangeBounds(dn.Array, mi.Params)
					if err != nil {
						return nil, errf(m.Name, "memory %s: %v", dn.Name, err)
					}
					if lo > hi {
						lo, hi = hi, lo
					}
					ni.Depth = int(hi-lo) + 1
					ni.Base = lo
				}
				if old, exists := mi.Nets[dn.Name]; exists {
					// Re-declaration of a port net (wire [3:0] a; after
					// non-ANSI port) is tolerated if consistent.
					if old.Width != w {
						return nil, errf(m.Name, "net %s redeclared with different width", dn.Name)
					}
					if x.Kind == verilog.Reg {
						old.Kind = verilog.Reg
					}
					continue
				}
				mi.Nets[dn.Name] = ni
			}
		case *verilog.Instance:
			mi.Insts = append(mi.Insts, x)
		}
	}
	return mi, nil
}

func portIsReg(m *verilog.Module, name string) bool {
	for _, p := range m.Ports {
		if p.Name == name {
			return p.IsReg
		}
	}
	return false
}

func resolvePorts(m *verilog.Module, env verilog.Env) ([]PortInfo, error) {
	ports := make([]PortInfo, 0, len(m.Ports))
	for _, p := range m.Ports {
		w, err := verilog.RangeWidth(p.Range, env)
		if err != nil {
			return nil, errf(m.Name, "port %s: %v", p.Name, err)
		}
		msb, lsb, err := verilog.RangeBounds(p.Range, env)
		if err != nil {
			return nil, errf(m.Name, "port %s: %v", p.Name, err)
		}
		ports = append(ports, PortInfo{Name: p.Name, Dir: p.Dir, Width: w, MSB: msb, LSB: lsb})
	}
	return ports, nil
}

// elaborateInstance builds the instance subtree rooted at module mi.
func (d *Design) elaborateInstance(mi *ModuleInfo, name, path string, env verilog.Env, parent *InstanceNode, depth int) (*InstanceNode, error) {
	if depth > 64 {
		return nil, errf(mi.Name, "instance hierarchy too deep (cycle?)")
	}
	ports, err := resolvePorts(mi.AST, env)
	if err != nil {
		return nil, err
	}
	node := &InstanceNode{Name: name, Path: path, Module: mi, Env: env, Ports: ports, Parent: parent}
	for _, in := range mi.Insts {
		child, ok := d.Modules[in.Module]
		if !ok {
			return nil, errf(mi.Name, "instance %s references unknown module %q", in.Name, in.Module)
		}
		childEnv := make(verilog.Env, len(child.Params))
		for k, v := range child.Params {
			childEnv[k] = v
		}
		if err := applyParamOverrides(child, in, env, childEnv); err != nil {
			return nil, err
		}
		if err := checkConnections(mi, child, in); err != nil {
			return nil, err
		}
		cn, err := d.elaborateInstance(child, in.Name, path+"."+in.Name, childEnv, node, depth+1)
		if err != nil {
			return nil, err
		}
		node.Children = append(node.Children, cn)
	}
	return node, nil
}

func applyParamOverrides(child *ModuleInfo, in *verilog.Instance, parentEnv, childEnv verilog.Env) error {
	ordered := orderedParamNames(child.AST)
	for i, ov := range in.Params {
		name := ov.Port
		if name == "" {
			if i >= len(ordered) {
				return errf(child.Name, "instance %s: too many positional parameter overrides", in.Name)
			}
			name = ordered[i]
		}
		if _, ok := childEnv[name]; !ok {
			return errf(child.Name, "instance %s overrides unknown parameter %q", in.Name, name)
		}
		v, err := verilog.EvalConst(ov.Expr, parentEnv)
		if err != nil {
			return errf(child.Name, "instance %s parameter %s: %v", in.Name, name, err)
		}
		childEnv[name] = v
	}
	// Recompute localparams that depend on overridden parameters.
	for _, p := range child.AST.Params {
		if p.IsLocal {
			v, err := verilog.EvalConst(p.Value, childEnv)
			if err != nil {
				return errf(child.Name, "localparam %s: %v", p.Name, err)
			}
			childEnv[p.Name] = v
		}
	}
	return nil
}

func orderedParamNames(m *verilog.Module) []string {
	var names []string
	for _, p := range m.Params {
		if !p.IsLocal {
			names = append(names, p.Name)
		}
	}
	return names
}

func checkConnections(parent, child *ModuleInfo, in *verilog.Instance) error {
	named := false
	for _, c := range in.Conns {
		if c.Port != "" {
			named = true
			if child.Port(c.Port) == nil {
				return errf(parent.Name, "instance %s connects unknown port %q of %s",
					in.Name, c.Port, child.Name)
			}
		}
	}
	if !named && len(in.Conns) > len(child.Ports) {
		return errf(parent.Name, "instance %s has %d positional connections but %s has %d ports",
			in.Name, len(in.Conns), child.Name, len(child.Ports))
	}
	return nil
}

// InstanceByPath returns the instance with the given hierarchical path,
// or nil.
func (d *Design) InstanceByPath(path string) *InstanceNode {
	for _, n := range d.AllInstances {
		if n.Path == path {
			return n
		}
	}
	return nil
}

// NonTopModules returns all modules except the top, sorted by name.
func (d *Design) NonTopModules() []*ModuleInfo {
	var out []*ModuleInfo
	for _, m := range d.Modules {
		if m != d.Top {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NonRootInstances returns every instance except the root, in preorder.
func (d *Design) NonRootInstances() []*InstanceNode {
	if len(d.AllInstances) == 0 {
		return nil
	}
	return d.AllInstances[1:]
}
