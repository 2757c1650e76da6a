package rtl

import (
	"testing"

	"alice/internal/verilog"
)

func TestLCAAndInsertionPoint(t *testing.T) {
	src := `
module top (input wire a, output wire o1, output wire o2);
  mid u_mid (.a(a), .o(o1));
  leaf u_leaf0 (.x(a), .y(o2));
endmodule
module mid (input wire a, output wire o);
  wire t;
  leaf u_leaf1 (.x(a), .y(t));
  leaf u_leaf2 (.x(t), .y(o));
endmodule
module leaf (input wire x, output wire y);
  assign y = ~x;
endmodule
`
	ast, err := verilog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Elaborate(ast, "top")
	if err != nil {
		t.Fatal(err)
	}
	l1 := d.InstanceByPath("top.u_mid.u_leaf1")
	l2 := d.InstanceByPath("top.u_mid.u_leaf2")
	l0 := d.InstanceByPath("top.u_leaf0")
	mid := d.InstanceByPath("top.u_mid")
	if l1 == nil || l2 == nil || l0 == nil || mid == nil {
		t.Fatal("instance lookup failed")
	}
	if got := LCA([]*InstanceNode{l1, l2}); got != mid {
		t.Errorf("LCA(l1,l2) = %v, want mid", got.Path)
	}
	if got := LCA([]*InstanceNode{l1, l0}); got != d.Root {
		t.Errorf("LCA(l1,l0) = %v, want root", got.Path)
	}
	if got := InsertionPoint([]*InstanceNode{l1}); got != mid {
		t.Errorf("InsertionPoint(l1) = %v, want mid", got.Path)
	}
	if got := InsertionPoint([]*InstanceNode{l1, l2}); got != mid {
		t.Errorf("InsertionPoint(l1,l2) = %v, want mid", got.Path)
	}
	if got := InsertionPoint(nil); got != nil {
		t.Errorf("InsertionPoint(nil) = %v, want nil", got)
	}
}
