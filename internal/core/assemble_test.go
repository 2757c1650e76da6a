package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"alice/internal/bench"
	"alice/internal/fabric"
	"alice/internal/netlist"
	"alice/internal/openfpga"
	"alice/internal/rtl"
	"alice/internal/synth"
	"alice/internal/techmap"
	"alice/internal/verilog"
)

// paperKs are the LUT sizes the corpus assembly is checked at: the
// lowered K=2, the paper's K=4 and the sizes around it.
var paperKs = []int{2, 3, 4, 6}

// wrapperReference is the per-cluster path characterization took before
// it assembled clusters from their instances: it synthesizes and
// optimizes cluster i's own wrapper, then maps it at each LUT size. The
// assembler must reproduce it node for node.
func wrapperReference(ctx context.Context, d *rtl.Design, c Cluster, i int, ks []int, opts openfpga.Options) (*netlist.Netlist, []*techmap.LUTNetwork, error) {
	name := clusterName(i)
	wrapper := BuildClusterWrapper(&c, name)
	ast := &verilog.Design{Modules: append(append([]*verilog.Module(nil), d.AST.Modules...), wrapper)}
	n, err := openfpga.Synthesize(ctx, ast, name, opts)
	if err != nil {
		return nil, nil, err
	}
	lns := make([]*techmap.LUTNetwork, len(ks))
	for x, k := range ks {
		if lns[x], err = openfpga.MapNetlist(n, fabric.Params{LUTSize: k}); err != nil {
			return nil, nil, err
		}
	}
	return n, lns, nil
}

// netlistDiff describes the first difference between two netlists, or
// returns "".
func netlistDiff(got, want *netlist.Netlist) string {
	switch {
	case got.Name != want.Name:
		return fmt.Sprintf("name %q, want %q", got.Name, want.Name)
	case !slices.Equal(got.Nodes, want.Nodes):
		for x := range min(len(got.Nodes), len(want.Nodes)) {
			if got.Nodes[x] != want.Nodes[x] {
				return fmt.Sprintf("node %d is %+v, want %+v", x, got.Nodes[x], want.Nodes[x])
			}
		}
		return fmt.Sprintf("%d nodes, want %d", len(got.Nodes), len(want.Nodes))
	case !slices.Equal(got.PIs, want.PIs) || !slices.Equal(got.PINames, want.PINames):
		return fmt.Sprintf("inputs %v %q, want %v %q", got.PIs, got.PINames, want.PIs, want.PINames)
	case !slices.Equal(got.POs, want.POs) || !slices.Equal(got.PONames, want.PONames):
		return fmt.Sprintf("outputs %v %q, want %v %q", got.POs, got.PONames, want.POs, want.PONames)
	case !slices.Equal(got.DFFs, want.DFFs):
		return fmt.Sprintf("flip-flops %v, want %v", got.DFFs, want.DFFs)
	}
	return ""
}

// networkDiff describes the first difference between two LUT networks,
// or returns "".
func networkDiff(got, want *techmap.LUTNetwork) string {
	switch {
	case got.Name != want.Name || got.K != want.K:
		return fmt.Sprintf("%s at K=%d, want %s at K=%d", got.Name, got.K, want.Name, want.K)
	case len(got.Nodes) != len(want.Nodes):
		return fmt.Sprintf("%d nodes, want %d", len(got.Nodes), len(want.Nodes))
	case !slices.Equal(got.PIs, want.PIs) || !slices.Equal(got.PINames, want.PINames):
		return fmt.Sprintf("inputs %v %q, want %v %q", got.PIs, got.PINames, want.PIs, want.PINames)
	case !slices.Equal(got.POs, want.POs) || !slices.Equal(got.PONames, want.PONames):
		return fmt.Sprintf("outputs %v %q, want %v %q", got.POs, got.PONames, want.POs, want.PONames)
	case !slices.Equal(got.FFs, want.FFs):
		return fmt.Sprintf("flip-flops %v, want %v", got.FFs, want.FFs)
	}
	for x, g := range got.Nodes {
		w := want.Nodes[x]
		if g.Kind != w.Kind || g.Mask != w.Mask || !slices.Equal(g.In, w.In) {
			return fmt.Sprintf("node %d is %s %#x %v, want %s %#x %v", x, g.Kind, g.Mask, g.In, w.Kind, w.Mask, w.In)
		}
	}
	return ""
}

// checkAssembly compares the assembled netlist and networks of every
// cluster i with every % stride == 0 against the wrapper reference, at
// each LUT size. The clusters are checked in parallel; the assembler is
// shared, as characterization's workers share it.
func checkAssembly(t *testing.T, name string, d *rtl.Design, clusters []Cluster, ks []int, stride int) {
	t.Helper()
	ctx := context.Background()
	opts := openfpga.Options{UnifyClocks: true}
	asm := newAssembler(ctx, d, clusters, ks, opts)
	errs := make([]string, len(clusters))
	ParallelFor(len(clusters), runtime.GOMAXPROCS(0), func(i int) {
		if i%stride != 0 {
			return
		}
		wn, wlns, werr := wrapperReference(ctx, d, clusters[i], i, ks, opts)
		n, err := asm.netlist(i)
		if (err != nil) != (werr != nil) {
			errs[i] = fmt.Sprintf("error %v, wrapper %v", err, werr)
			return
		}
		if err != nil {
			return
		}
		if diff := netlistDiff(n, wn); diff != "" {
			errs[i] = "netlist: " + diff
			return
		}
		for x, k := range ks {
			ln, err := asm.network(i, k)
			if err != nil {
				errs[i] = fmt.Sprintf("K=%d: %v", k, err)
				return
			}
			if diff := networkDiff(ln, wlns[x]); diff != "" {
				errs[i] = fmt.Sprintf("K=%d network: %s", k, diff)
				return
			}
		}
	})
	for i, e := range errs {
		if e != "" {
			t.Errorf("%s cluster %d %v: %s", name, i, clusters[i].String(), e)
		}
	}
}

// paperClusters returns a paper design's clusters under one of the
// paper configurations.
func paperClusters(t testing.TB, b bench.Benchmark, cfg *Config) (*rtl.Design, []Cluster) {
	t.Helper()
	d, df := elab(t, b.Source())
	cfg.SelectedOutputs = b.SelectedOutputs
	fr, err := FilterModules(context.Background(), d, df, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clusters, err := IdentifyClusters(context.Background(), fr.Candidates, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, clusters
}

// TestAssemblyMatchesWrappers checks that every cluster of the seven
// paper designs under cfg1 and cfg2, assembled from its instances,
// equals its own wrapper's optimized netlist and its mapped networks at
// K=2, 3, 4 and 6 node for node. Under the race detector only every
// seventh des3 cluster is checked.
func TestAssemblyMatchesWrappers(t *testing.T) {
	for _, b := range bench.All() {
		for ci, cfg := range []*Config{Cfg1(), Cfg2()} {
			d, clusters := paperClusters(t, b, cfg)
			stride := 1
			if b.Name == "des3" && raceEnabled {
				stride = 7
			}
			checkAssembly(t, fmt.Sprintf("%s cfg%d", b.Name, ci+1), d, clusters, paperKs, stride)
		}
	}
}

// edgeHierarchy exercises the assembly's corner cases: one leaf module
// under two parameter environments and under one environment at two
// paths (u_a, u_c and, at depth two, u_m.u_l), constant outputs (u_k1,
// u_k2), an input no output reads (u_i), dead logic in a member and
// below it (u_m), flip-flops whose constant D inputs take Optimize
// three rebuilds to sweep next to one that resets to 1 (u_ch), and a
// member that fails synthesis (u_x, whose output is undriven).
const edgeHierarchy = `
module leaf #(parameter W = 2) (input wire [W-1:0] a, input wire [W-1:0] b, output wire [W-1:0] y);
  assign y = a + b;
endmodule
module mid (input wire [2:0] p, input wire [2:0] q, output wire [2:0] s, output wire t);
  wire [2:0] dead = p & q;
  leaf #(.W(3)) u_l (.a(p), .b(q), .y(s));
  assign t = p[0] | q[2];
endmodule
module konst (input wire en, output wire [1:0] z, output wire w);
  assign z = 2'b01;
  assign w = ~en;
endmodule
module idle (input wire a, input wire unused, output wire y);
  assign y = ~a;
endmodule
module chain (input wire clk, input wire rst, input wire a, output wire y, output wire r);
  reg q1, q2, r1;
  always @(posedge clk or posedge rst)
    if (rst) begin q1 <= 1'b0; q2 <= 1'b0; r1 <= 1'b1; end
    else begin q1 <= 1'b0; q2 <= q1; r1 <= a; end
  assign y = a ^ q2;
  assign r = r1;
endmodule
module broken (input wire a, output wire y);
endmodule
module top (input wire clk, input wire rst, input wire [15:0] in, output wire [23:0] out);
  leaf #(.W(2)) u_a (.a(in[1:0]), .b(in[3:2]), .y(out[1:0]));
  leaf #(.W(3)) u_b (.a(in[6:4]), .b(in[9:7]), .y(out[4:2]));
  leaf #(.W(2)) u_c (.a(in[11:10]), .b(in[13:12]), .y(out[6:5]));
  mid u_m (.p(in[2:0]), .q(in[5:3]), .s(out[9:7]), .t(out[10]));
  konst u_k1 (.en(in[14]), .z(out[12:11]), .w(out[13]));
  konst u_k2 (.en(in[15]), .z(out[15:14]), .w(out[16]));
  idle u_i (.a(in[0]), .unused(in[1]), .y(out[17]));
  chain u_ch (.clk(clk), .rst(rst), .a(in[2]), .y(out[18]), .r(out[19]));
  broken u_x (.a(in[3]), .y(out[20]));
  assign out[23:21] = 3'b0;
endmodule
`

// edgeClusters elaborates edgeHierarchy and builds its clusters by
// hand: every instance but the top alone, every pair of instances that
// do not nest, and a few larger sets.
func edgeClusters(t *testing.T) (*rtl.Design, []Cluster) {
	t.Helper()
	ast, err := verilog.Parse(edgeHierarchy)
	if err != nil {
		t.Fatal(err)
	}
	d, err := rtl.Elaborate(ast, "top")
	if err != nil {
		t.Fatal(err)
	}
	byPath := make(map[string]*rtl.InstanceNode)
	var insts []*rtl.InstanceNode
	for _, in := range d.AllInstances[1:] {
		byPath[in.Path] = in
		insts = append(insts, in)
	}
	cluster := func(members ...*rtl.InstanceNode) Cluster {
		c := Cluster{Instances: slices.Clone(members)}
		slices.SortFunc(c.Instances, func(x, y *rtl.InstanceNode) int { return strings.Compare(x.Path, y.Path) })
		for _, in := range members {
			c.Pins += in.PinCount()
		}
		return c
	}
	var clusters []Cluster
	for x, a := range insts {
		clusters = append(clusters, cluster(a))
		for _, b := range insts[x+1:] {
			if !strings.HasPrefix(b.Path, a.Path+".") {
				clusters = append(clusters, cluster(a, b))
			}
		}
	}
	paths := func(ps ...string) Cluster {
		var members []*rtl.InstanceNode
		for _, p := range ps {
			members = append(members, byPath["top."+p])
		}
		return cluster(members...)
	}
	clusters = append(clusters,
		paths("u_a", "u_b", "u_c", "u_k1", "u_k2"),
		paths("u_ch", "u_i", "u_m", "u_a"),
		paths("u_a", "u_b", "u_c", "u_ch", "u_i", "u_k1", "u_k2", "u_m"),
		paths("u_a", "u_b", "u_c", "u_ch", "u_i", "u_k1", "u_k2", "u_m.u_l", "u_x"))
	return d, clusters
}

// TestAssemblyEdgeCases checks every hand-built cluster of
// edgeHierarchy against its wrapper at K=2..6, the corner cases by name,
// and that characterization fails exactly the clusters holding the
// member that does not synthesize, with its *synth.Error, while the
// others still characterize.
func TestAssemblyEdgeCases(t *testing.T) {
	d, clusters := edgeClusters(t)
	checkAssembly(t, "edge", d, clusters, []int{2, 3, 4, 5, 6}, 1)

	ctx := context.Background()
	asm := newAssembler(ctx, d, clusters, []int{4}, openfpga.Options{UnifyClocks: true})
	find := func(key string) int {
		for i, c := range clusters {
			if c.Key() == key {
				return i
			}
		}
		t.Fatalf("no cluster %q", key)
		return -1
	}
	// The two constant generators are shared by both instances.
	ln, err := asm.network(find("top.u_k1\x00top.u_k2"), 4)
	if err != nil {
		t.Fatal(err)
	}
	po := make(map[string]int32)
	for j, name := range ln.PONames {
		po[name] = ln.POs[j]
	}
	for _, bit := range []string{"z[0]", "z[1]"} {
		g := po["u_k1__"+bit]
		if g != po["u_k2__"+bit] || ln.Nodes[g].Kind != techmap.LLUT || !slices.Equal(ln.Nodes[g].In, []int32{0}) {
			t.Errorf("constant output %s: u_k1 driven by node %d, u_k2 by node %d, want one shared generator", bit, g, po["u_k2__"+bit])
		}
	}
	// The unread input stays an input.
	if ln, err = asm.network(find("top.u_i"), 4); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(ln.PINames, "u_i__unused") {
		t.Errorf("u_i inputs %q lack the unread u_i__unused", ln.PINames)
	}
	// The constant flip-flops take three rebuilds, and a cluster with
	// the chain stops there while its other members stop at two.
	mixed := find("top.u_a\x00top.u_ch")
	n, err := asm.netlist(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if k := asm.nets[mixed].k; k != 3 || len(n.DFFs) != 1 {
		t.Errorf("u_a with u_ch: stopped at rebuild %d with %d flip-flops, want 3 and 1", k, len(n.DFFs))
	}
	if _, err := asm.netlist(find("top.u_a")); err != nil || asm.nets[find("top.u_a")].k != 2 {
		t.Errorf("u_a alone: stopped at rebuild %d (%v), want 2", asm.nets[find("top.u_a")].k, err)
	}

	cfg := Cfg1()
	cands, err := CharacterizeClusters(ctx, d, clusters, cfg, CharacterizeOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cands {
		broken := slices.ContainsFunc(c.Cluster.Instances, func(in *rtl.InstanceNode) bool { return in.Path == "top.u_x" })
		var se *synth.Error
		switch {
		case broken && !errors.As(c.Err, &se):
			t.Errorf("cluster %d %v: error %v, want a *synth.Error", i, c.Cluster.String(), c.Err)
		case !broken && (c.Err != nil || c.Fabric == nil):
			t.Errorf("cluster %d %v: fabric %v, error %v", i, c.Cluster.String(), c.Fabric != nil, c.Err)
		}
		if broken {
			_, _, werr := wrapperReference(ctx, d, c.Cluster, i, []int{4}, openfpga.Options{UnifyClocks: true})
			if !errors.As(werr, &se) {
				t.Errorf("cluster %d %v: wrapper error %v, want a *synth.Error", i, c.Cluster.String(), werr)
			}
		}
	}
}
