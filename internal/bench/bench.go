// Package bench reconstructs the benchmark suite of Table 1 of the
// ALICE paper (CEP's DES3/FIR/IIR/SHA256, IWLS05's SASC/USB_PHY,
// OpenROAD's GCD) as synthesizable Verilog in the subset of
// internal/verilog. The originals are not redistributable inside this
// module, so each design is rebuilt to match the structural
// characteristics the flow depends on — module count, instance count,
// and per-module I/O pin counts — with functional logic of comparable
// volume. S-box and coefficient tables
// are deterministic but representative, not standards-accurate.
package bench

// Benchmark bundles a design with the flow inputs used in the paper's
// evaluation.
type Benchmark struct {
	Name string
	// Suite is the originating benchmark collection (for Table 1).
	Suite string
	// Source returns the full Verilog text.
	Source func() string
	// SelectedOutputs are the protected outputs fed to module filtering.
	SelectedOutputs []string
	// Table1 rows from the paper, which BenchmarkTable1Characteristics
	// prints beside the reconstruction's.
	PaperModules   int
	PaperInstances int
	PaperMinPins   int
	PaperMaxPins   int
}

// All returns the benchmark suite in the paper's order.
func All() []Benchmark {
	return []Benchmark{
		{
			Name: "des3", Suite: "CEP", Source: DES3,
			SelectedOutputs: []string{"desOut"},
			PaperModules:    11, PaperInstances: 11, PaperMinPins: 12, PaperMaxPins: 301,
		},
		{
			Name: "fir", Suite: "CEP", Source: FIR,
			SelectedOutputs: []string{"y_out"},
			PaperModules:    5, PaperInstances: 5, PaperMinPins: 64, PaperMaxPins: 384,
		},
		{
			Name: "iir", Suite: "CEP", Source: IIR,
			SelectedOutputs: []string{"y_out"},
			PaperModules:    5, PaperInstances: 5, PaperMinPins: 66, PaperMaxPins: 384,
		},
		{
			Name: "sha256", Suite: "CEP", Source: SHA256,
			SelectedOutputs: []string{"digest"},
			PaperModules:    3, PaperInstances: 3, PaperMinPins: 38, PaperMaxPins: 774,
		},
		{
			Name: "sasc", Suite: "IWLS05", Source: SASC,
			SelectedOutputs: []string{"txd", "sio_ce"},
			PaperModules:    2, PaperInstances: 3, PaperMinPins: 23, PaperMaxPins: 28,
		},
		{
			Name: "usb_phy", Suite: "IWLS05", Source: USBPHY,
			SelectedOutputs: []string{"txdp", "txdn", "rx_data", "rx_valid"},
			PaperModules:    3, PaperInstances: 3, PaperMinPins: 17, PaperMaxPins: 33,
		},
		{
			Name: "gcd", Suite: "OpenROAD", Source: GCD,
			SelectedOutputs: []string{"result"},
			PaperModules:    10, PaperInstances: 11, PaperMinPins: 6, PaperMaxPins: 68,
		},
	}
}

// ByName returns the named benchmark.
func ByName(name string) (Benchmark, bool) {
	for _, b := range All() {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// lcg is a tiny deterministic generator for table contents.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = (*l)*6364136223846793005 + 1442695040888963407
	return uint64(*l) >> 17
}

func (l *lcg) intn(n int) int { return int(l.next() % uint64(n)) }
