package core

import (
	"fmt"
	"math/rand"
	"sort"

	"alice/internal/rtl"
	"alice/internal/synth"
	"alice/internal/verilog"
)

// Redaction is the regenerated design after eFPGA insertion: the
// original hierarchy with the selected instances replaced by eFPGA
// instances whose configuration ports are propagated to the top module.
type Redaction struct {
	AST        *verilog.Design
	Top        string
	EFPGANames []string
	// Functional is true when eFPGA modules carry a behavioural model
	// of the *programmed* fabric (for simulation); otherwise they model
	// an unprogrammed fabric whose outputs are stuck at 0, which is the
	// black-box view the foundry sees.
	Functional bool
}

// Print renders the redacted design as Verilog.
func (r *Redaction) Print() string { return verilog.Print(r.AST) }

// cfgPorts lists the configuration-interface ports added per eFPGA.
var cfgPorts = []struct {
	suffix string
	dir    verilog.Dir
}{
	{"prog_clk", verilog.Input},
	{"cfg_en", verilog.Input},
	{"cfg_in", verilog.Input},
	{"cfg_out", verilog.Output},
}

// GenerateRedactedDesign rebuilds the design with the solution's
// clusters replaced by eFPGA instances. The insertion point of each
// eFPGA is the dominator (lowest common ancestor) of its member
// instances in the hierarchy; configuration signals are routed up to
// the top module.
func GenerateRedactedDesign(d *rtl.Design, sol *Solution, functional bool) (*Redaction, error) {
	type edit struct {
		removeInst map[string]bool
		addItems   []verilog.Item
		addPorts   []*verilog.Port
		patches    []patchInstance
	}
	edits := make(map[string]*edit)
	editOf := func(mod string) *edit {
		e, ok := edits[mod]
		if !ok {
			e = &edit{removeInst: make(map[string]bool)}
			edits[mod] = e
		}
		return e
	}
	var efpgaModules []*verilog.Module
	var efpgaNames []string

	for k, fc := range sol.Fabrics {
		insts := fc.Cluster.Instances
		parent := rtl.InsertionPoint(insts)
		if parent == nil {
			return nil, fmt.Errorf("core: empty cluster in solution")
		}
		for _, in := range insts {
			if in.Parent != parent {
				return nil, fmt.Errorf("core: cluster %s spans multiple parent modules (instances under %s and %s); multi-parent rerouting is not supported",
					fc.Cluster.String(), parent.Path, in.Parent.Path)
			}
		}
		if len(d.InstancesOfModule(parent.Module.Name)) > 1 {
			return nil, fmt.Errorf("core: insertion parent %s is instantiated more than once", parent.Module.Name)
		}
		ename := fmt.Sprintf("alice_efpga_%s_u%d", fc.Fabric.Arch.Name(), k)
		efpgaNames = append(efpgaNames, ename)

		em, conns, err := buildEFPGAModule(d, fc, ename, functional)
		if err != nil {
			return nil, err
		}
		efpgaModules = append(efpgaModules, em)

		e := editOf(parent.Module.Name)
		for _, in := range insts {
			e.removeInst[in.Name] = true
		}
		// Configuration connections at the insertion parent.
		for _, cp := range cfgPorts {
			name := fmt.Sprintf("%s_%s", ename, cp.suffix)
			conns = append(conns, verilog.Connection{Port: cp.suffix, Expr: verilog.ID(name)})
			e.addPorts = append(e.addPorts, &verilog.Port{Name: name, Dir: cp.dir})
		}
		e.addItems = append(e.addItems, &verilog.Instance{
			Module: ename,
			Name:   fmt.Sprintf("u_%s", ename),
			Conns:  conns,
		})
		// Propagate config ports up the hierarchy to the top.
		for node := parent; node.Parent != nil; node = node.Parent {
			up := editOf(node.Parent.Module.Name)
			if len(d.InstancesOfModule(node.Parent.Module.Name)) > 1 {
				return nil, fmt.Errorf("core: config propagation through multiply-instantiated module %s", node.Parent.Module.Name)
			}
			var upConns []verilog.Connection
			for _, cp := range cfgPorts {
				name := fmt.Sprintf("%s_%s", ename, cp.suffix)
				up.addPorts = append(up.addPorts, &verilog.Port{Name: name, Dir: cp.dir})
				upConns = append(upConns, verilog.Connection{Port: name, Expr: verilog.ID(name)})
			}
			up.patches = append(up.patches, patchInstance{inst: node.Name, conns: upConns})
		}
	}

	// Rebuild the module list.
	out := &verilog.Design{}
	for _, m := range d.AST.Modules {
		e, touched := edits[m.Name]
		if !touched {
			out.Modules = append(out.Modules, m)
			continue
		}
		nm := &verilog.Module{Name: m.Name, Pos: m.Pos}
		nm.Params = m.Params
		nm.Ports = append(append([]*verilog.Port(nil), m.Ports...), e.addPorts...)
		for _, it := range m.Items {
			if inst, ok := it.(*verilog.Instance); ok {
				if e.removeInst[inst.Name] {
					continue
				}
				extra := collectPatches(e.patches, inst.Name)
				if len(extra) > 0 {
					ni := *inst
					ni.Conns = append(append([]verilog.Connection(nil), inst.Conns...), extra...)
					nm.Items = append(nm.Items, &ni)
					continue
				}
			}
			nm.Items = append(nm.Items, it)
		}
		nm.Items = append(nm.Items, e.addItems...)
		out.Modules = append(out.Modules, nm)
	}
	out.Modules = append(out.Modules, efpgaModules...)
	sort.Strings(efpgaNames)
	return &Redaction{AST: out, Top: d.Top.Name, EFPGANames: efpgaNames, Functional: functional}, nil
}

// patchInstance records extra connections to splice into an existing
// instance while rebuilding a module (config-port propagation).
type patchInstance struct {
	inst  string
	conns []verilog.Connection
}

func collectPatches(patches []patchInstance, inst string) []verilog.Connection {
	var out []verilog.Connection
	for _, p := range patches {
		if p.inst == inst {
			out = append(out, p.conns...)
		}
	}
	return out
}

// buildEFPGAModule emits the eFPGA IP module for one fabric and returns
// the data-port connections that re-route the original instance signals
// into the eFPGA's GPIOs.
func buildEFPGAModule(d *rtl.Design, fc *FabricCandidate, name string, functional bool) (*verilog.Module, []verilog.Connection, error) {
	em := &verilog.Module{Name: name}
	var conns []verilog.Connection
	for _, cp := range cfgPorts {
		em.Ports = append(em.Ports, &verilog.Port{Name: cp.suffix, Dir: cp.dir})
	}
	em.Items = append(em.Items, &verilog.ContAssign{LHS: verilog.ID("cfg_out"), RHS: verilog.ID("cfg_in")})

	parentMod := rtl.InsertionPoint(fc.Cluster.Instances).Module
	for _, in := range fc.Cluster.Instances {
		origInst, err := findInstanceItem(parentMod, in.Name)
		if err != nil {
			return nil, nil, err
		}
		var modelConns []verilog.Connection
		for _, p := range in.Ports {
			pn := wrapperPortName(in, p.Name)
			var rng *verilog.Range
			if p.Width > 1 {
				rng = &verilog.Range{MSB: verilog.Num(uint64(p.Width - 1)), LSB: verilog.Num(0)}
			}
			em.Ports = append(em.Ports, &verilog.Port{Name: pn, Dir: p.Dir, Range: rng})
			if !functional && p.Dir == verilog.Output {
				// Unprogrammed fabric: outputs stuck at 0.
				em.Items = append(em.Items, &verilog.ContAssign{
					LHS: verilog.ID(pn),
					RHS: &verilog.Number{Width: p.Width, Val: 0, Sized: true, Base: 'd'},
				})
			}
			modelConns = append(modelConns, verilog.Connection{Port: p.Name, Expr: verilog.ID(pn)})
			// Outer connection: reuse the original expression wired to
			// this instance port, if any.
			if expr := connExprFor(origInst, in, p.Name); expr != nil {
				conns = append(conns, verilog.Connection{Port: pn, Expr: expr})
			}
		}
		if functional {
			var params []verilog.Connection
			for _, prm := range in.Module.AST.Params {
				if prm.IsLocal {
					continue
				}
				if in.Env[prm.Name] != in.Module.Params[prm.Name] {
					params = append(params, verilog.Connection{Port: prm.Name, Expr: verilog.Num(uint64(in.Env[prm.Name]))})
				}
			}
			em.Items = append(em.Items, &verilog.Instance{
				Module: in.Module.Name,
				Name:   "m_" + sanitizePath(in.Path),
				Params: params,
				Conns:  modelConns,
			})
		}
	}
	return em, conns, nil
}

// findInstanceItem locates the AST instantiation of name inside a module.
func findInstanceItem(m *rtl.ModuleInfo, name string) (*verilog.Instance, error) {
	for _, it := range m.AST.Items {
		if inst, ok := it.(*verilog.Instance); ok && inst.Name == name {
			return inst, nil
		}
	}
	return nil, fmt.Errorf("core: instance %s not found in module %s", name, m.Name)
}

// connExprFor returns the expression originally connected to a port of
// an instance (nil when unconnected).
func connExprFor(inst *verilog.Instance, node *rtl.InstanceNode, port string) verilog.Expr {
	for i, c := range inst.Conns {
		if c.Port != "" {
			if c.Port == port {
				return c.Expr
			}
			continue
		}
		if i < len(node.Ports) && node.Ports[i].Name == port {
			return c.Expr
		}
	}
	return nil
}

// VerifyRedaction checks, by co-simulation over random stimulus, that
// the redacted design with functional (programmed) eFPGA models behaves
// exactly like the original design on all shared ports.
func VerifyRedaction(orig *rtl.Design, red *Redaction, steps int, seed int64) error {
	if !red.Functional {
		return fmt.Errorf("core: redaction carries unprogrammed eFPGA models; regenerate with functional=true")
	}
	// Both sides unify clocks, as characterization does, so a
	// multi-clock design the flow redacts can be checked.
	origRes, err := synth.SynthesizeOpts(orig, synth.Options{UnifyClocks: true})
	if err != nil {
		return fmt.Errorf("core: synthesizing original: %w", err)
	}
	redD, err := rtl.Elaborate(red.AST, red.Top)
	if err != nil {
		return fmt.Errorf("core: elaborating redacted design: %w", err)
	}
	redRes, err := synth.SynthesizeOpts(redD, synth.Options{UnifyClocks: true})
	if err != nil {
		return fmt.Errorf("core: synthesizing redacted design: %w", err)
	}
	// The co-simulation runs bit-parallel on the 64-lane word
	// simulators: each step drives 64 independent random sequences
	// through both designs, so the sweep covers 64x the patterns of
	// the scalar sim at roughly the same cost per step.
	s1 := synth.NewWordVectorSim(origRes)
	s2 := synth.NewWordVectorSim(redRes)
	r := rand.New(rand.NewSource(seed))
	// Shared ports are the original design's ports; stimulus words are
	// sized by the original's port widths.
	var outputs []string
	for _, p := range origRes.Outputs {
		outputs = append(outputs, p.Name)
	}
	maxW := 0
	for _, p := range origRes.Inputs {
		if len(p.Bits) > maxW {
			maxW = len(p.Bits)
		}
	}
	stim := make([]uint64, maxW)
	s1.Reset()
	s2.Reset()
	// The redacted design is a *different* design than the original, so
	// a port the regeneration lost (or renamed) is a flow diagnostic,
	// not a programming error: use the error-returning sim accessors and
	// wrap mismatches as stage-attributed FlowErrors. The original's
	// side goes through the checked accessors too — even a violated
	// invariant there must surface as a typed verify error, never a
	// panic out of the library.
	verifyErr := func(err error) error {
		return &FlowError{Stage: StageVerify, Design: orig.Top.Name,
			Err: fmt.Errorf("redacted design lost a port of the original: %w", err)}
	}
	origErr := func(err error) error {
		return &FlowError{Stage: StageVerify, Design: orig.Top.Name,
			Err: fmt.Errorf("simulating original: %w", err)}
	}
	for step := 0; step < steps; step++ {
		for _, p := range origRes.Inputs {
			w := stim[:len(p.Bits)]
			for i := range w {
				w[i] = r.Uint64()
			}
			if err := s1.TrySet(p.Name, w); err != nil {
				return origErr(err)
			}
			if err := s2.TrySet(p.Name, w); err != nil {
				return verifyErr(err)
			}
		}
		if err := s1.StepChecked(); err != nil {
			return origErr(err)
		}
		if err := s2.StepChecked(); err != nil {
			return verifyErr(err)
		}
		if err := s1.EvalChecked(); err != nil {
			return origErr(err)
		}
		if err := s2.EvalChecked(); err != nil {
			return verifyErr(err)
		}
		for _, out := range outputs {
			// Each simulator owns its TryOut scratch, so reading one
			// port from each and comparing before the next port is safe.
			w2, err := s2.TryOut(out)
			if err != nil {
				return verifyErr(err)
			}
			w1, err := s1.TryOut(out)
			if err != nil {
				return origErr(err)
			}
			n := len(w1)
			if len(w2) > n {
				n = len(w2)
			}
			for i := 0; i < n; i++ {
				var b1, b2 uint64
				if i < len(w1) {
					b1 = w1[i]
				}
				if i < len(w2) {
					b2 = w2[i]
				}
				if b1 != b2 {
					return &FlowError{Stage: StageVerify, Design: orig.Top.Name,
						Err: fmt.Errorf("redacted design diverges on output %s at step %d", out, step)}
				}
			}
		}
	}
	return nil
}
