package verilog

// Design is a parsed collection of Verilog modules (one or more source
// files concatenated).
type Design struct {
	Modules []*Module
}

// FindModule returns the module with the given name, or nil.
func (d *Design) FindModule(name string) *Module {
	for _, m := range d.Modules {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Module is a single module declaration.
type Module struct {
	Name   string
	Ports  []*Port  // in header order
	Params []*Param // parameters and localparams, in source order
	Items  []Item   // declarations, assigns, always blocks, instances
	Pos    Pos
}

// Dir is a port direction.
type Dir int

// Port directions.
const (
	Input Dir = iota
	Output
	Inout
)

func (d Dir) String() string {
	switch d {
	case Input:
		return "input"
	case Output:
		return "output"
	case Inout:
		return "inout"
	}
	return "?"
}

// Port is a module port. Range is nil for scalar ports.
type Port struct {
	Name  string
	Dir   Dir
	Range *Range
	IsReg bool
	Pos   Pos
}

// Range is a [MSB:LSB] vector range with constant expressions.
type Range struct {
	MSB Expr
	LSB Expr
}

// Param is a parameter or localparam declaration.
type Param struct {
	Name    string
	Value   Expr
	IsLocal bool
}

// Item is a module body item.
type Item interface{ itemNode() }

// NetKind distinguishes wire from reg declarations.
type NetKind int

// Net kinds.
const (
	Wire NetKind = iota
	Reg
)

func (k NetKind) String() string {
	if k == Reg {
		return "reg"
	}
	return "wire"
}

// DeclName is one declarator in a net declaration; Array is non-nil for
// 1-D memories (reg [7:0] mem [0:15]).
type DeclName struct {
	Name  string
	Array *Range
}

// NetDecl declares one or more wires or regs sharing a vector range.
type NetDecl struct {
	Kind  NetKind
	Range *Range
	Names []DeclName
	Pos   Pos
}

// ContAssign is a continuous assignment (assign LHS = RHS;).
type ContAssign struct {
	LHS Expr
	RHS Expr
	Pos Pos
}

// Edge is a sensitivity edge qualifier.
type Edge int

// Edge qualifiers.
const (
	EdgeNone Edge = iota // level (plain signal in sensitivity list)
	EdgePos
	EdgeNeg
)

// Event is one entry of an always sensitivity list.
type Event struct {
	Edge Edge
	Sig  Expr
}

// Always is an always (or initial) block. Star is true for @(*) / @*.
// Initial marks an initial block, which the synthesizer rejects.
type Always struct {
	Star    bool
	Initial bool
	Events  []Event
	Body    Stmt
	Pos     Pos
}

// Connection is a named or positional port/parameter connection.
// Port is empty for positional connections. Expr may be nil for
// explicitly unconnected ports (.p()).
type Connection struct {
	Port string
	Expr Expr
}

// Instance instantiates a module.
type Instance struct {
	Module string
	Name   string
	Params []Connection // parameter overrides (#(...)), possibly positional
	Conns  []Connection
	Pos    Pos
}

func (*NetDecl) itemNode()    {}
func (*ContAssign) itemNode() {}
func (*Always) itemNode()     {}
func (*Instance) itemNode()   {}

// Stmt is a behavioural statement.
type Stmt interface{ stmtNode() }

// Block is a begin/end statement group.
type Block struct {
	Label string
	Stmts []Stmt
}

// If is an if/else statement; Else may be nil.
type If struct {
	Cond Expr
	Then Stmt
	Else Stmt
}

// Case is a case or casez statement. An item with nil Exprs is the
// default item.
type Case struct {
	Subject Expr
	Z       bool // casez (and casex, treated as casez)
	Items   []CaseItem
}

// CaseItem is one arm of a case statement.
type CaseItem struct {
	Exprs []Expr // nil for default
	Body  Stmt
}

// Assign is a blocking (=) or non-blocking (<=) procedural assignment.
type Assign struct {
	LHS      Expr
	RHS      Expr
	Blocking bool
}

// For is a for loop with constant bounds (unrolled during synthesis).
type For struct {
	Init *Assign
	Cond Expr
	Step *Assign
	Body Stmt
}

// Null is an empty statement (bare semicolon).
type Null struct{}

func (*Block) stmtNode()  {}
func (*If) stmtNode()     {}
func (*Case) stmtNode()   {}
func (*Assign) stmtNode() {}
func (*For) stmtNode()    {}
func (*Null) stmtNode()   {}

// Expr is an expression node.
type Expr interface{ exprNode() }

// Ident is a reference to a named net, reg, parameter, or genvar.
type Ident struct {
	Name string
}

// Number is a literal. For based literals with x/z/? digits (used in
// casez patterns), DontCare has 1-bits at the wildcard positions.
// Sized reports whether an explicit width was given; unsized literals
// get Width 32 by convention.
type Number struct {
	Width    int
	Val      uint64
	DontCare uint64
	Sized    bool
	Base     byte // 'b', 'o', 'd', 'h' or 0 for plain decimal
}

// Unary is a unary operator application: ! ~ & ~& | ~| ^ ~^ - +.
type Unary struct {
	Op Kind
	X  Expr
}

// Binary is a binary operator application.
type Binary struct {
	Op Kind
	X  Expr
	Y  Expr
}

// Ternary is the conditional operator cond ? a : b.
type Ternary struct {
	Cond Expr
	Then Expr
	Else Expr
}

// Concat is a concatenation {a, b, c}.
type Concat struct {
	Parts []Expr
}

// Repeat is a replication {N{x}}.
type Repeat struct {
	Count Expr
	X     Expr
}

// Index is a bit-select or memory element select x[i].
type Index struct {
	X   Expr
	Idx Expr
}

// Slice is a constant part-select x[msb:lsb].
type Slice struct {
	X   Expr
	MSB Expr
	LSB Expr
}

func (*Ident) exprNode()   {}
func (*Number) exprNode()  {}
func (*Unary) exprNode()   {}
func (*Binary) exprNode()  {}
func (*Ternary) exprNode() {}
func (*Concat) exprNode()  {}
func (*Repeat) exprNode()  {}
func (*Index) exprNode()   {}
func (*Slice) exprNode()   {}

// Num returns an unsized decimal literal expression.
func Num(v uint64) *Number { return &Number{Width: 32, Val: v} }

// ID returns an identifier expression.
func ID(name string) *Ident { return &Ident{Name: name} }
