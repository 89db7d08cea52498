package workload

import "fmt"

// mustApp builds a catalog application, panicking on construction errors
// (catalog entries are compile-time constants).
func mustApp(name string, total float64, phases []Phase) *App {
	a, err := NewApp(name, total, phases)
	if err != nil {
		panic(err)
	}
	return a
}

// catalog holds the evaluation and training applications (paper §V-A).
// Total instruction counts are calibrated so execution times on the
// simulated board land in the 100-350 s range the paper reports;
// memory-boundedness and IPC values reflect the published characterization
// of each benchmark (compute-bound blackscholes/gamess vs memory-bound
// mcf/streamcluster/canneal).
var catalog = map[string]*App{
	// 8-threaded PARSEC with native inputs.
	"blackscholes": mustApp("blackscholes", 1050, []Phase{
		{WorkFrac: 0.05, Threads: 1, MemBound: 0.10, IPCBig: 1.7, IPCLittle: 0.85},
		{WorkFrac: 0.95, Threads: 8, MemBound: 0.12, IPCBig: 1.6, IPCLittle: 0.80},
	}),
	"bodytrack": mustApp("bodytrack", 900, []Phase{
		{WorkFrac: 0.08, Threads: 2, MemBound: 0.25, IPCBig: 1.3, IPCLittle: 0.65},
		{WorkFrac: 0.50, Threads: 8, MemBound: 0.30, IPCBig: 1.2, IPCLittle: 0.60},
		{WorkFrac: 0.42, Threads: 8, MemBound: 0.35, IPCBig: 1.1, IPCLittle: 0.55},
	}),
	"facesim": mustApp("facesim", 980, []Phase{
		{WorkFrac: 0.10, Threads: 4, MemBound: 0.30, IPCBig: 1.2, IPCLittle: 0.60},
		{WorkFrac: 0.90, Threads: 8, MemBound: 0.38, IPCBig: 1.1, IPCLittle: 0.55},
	}),
	"fluidanimate": mustApp("fluidanimate", 920, []Phase{
		{WorkFrac: 1.0, Threads: 8, MemBound: 0.42, IPCBig: 1.0, IPCLittle: 0.52},
	}),
	"raytrace": mustApp("raytrace", 1100, []Phase{
		{WorkFrac: 0.06, Threads: 1, MemBound: 0.15, IPCBig: 1.5, IPCLittle: 0.75},
		{WorkFrac: 0.94, Threads: 8, MemBound: 0.18, IPCBig: 1.5, IPCLittle: 0.72},
	}),
	"x264": mustApp("x264", 850, []Phase{
		{WorkFrac: 0.30, Threads: 6, MemBound: 0.25, IPCBig: 1.4, IPCLittle: 0.68},
		{WorkFrac: 0.40, Threads: 8, MemBound: 0.28, IPCBig: 1.3, IPCLittle: 0.64},
		{WorkFrac: 0.30, Threads: 5, MemBound: 0.22, IPCBig: 1.4, IPCLittle: 0.68},
	}),
	"canneal": mustApp("canneal", 620, []Phase{
		{WorkFrac: 1.0, Threads: 8, MemBound: 0.60, IPCBig: 0.6, IPCLittle: 0.35},
	}),
	"streamcluster": mustApp("streamcluster", 560, []Phase{
		{WorkFrac: 1.0, Threads: 8, MemBound: 0.66, IPCBig: 0.55, IPCLittle: 0.32},
	}),

	// 8 copies of SPEC CPU2006 programs with train inputs: thread count is
	// constant at 8 (independent copies), phases capture input-set behaviour.
	"h264ref": mustApp("h264ref", 1150, []Phase{
		{WorkFrac: 1.0, Threads: 8, MemBound: 0.20, IPCBig: 1.7, IPCLittle: 0.82},
	}),
	"mcf": mustApp("mcf", 420, []Phase{
		{WorkFrac: 1.0, Threads: 8, MemBound: 0.78, IPCBig: 0.40, IPCLittle: 0.25},
	}),
	"omnetpp": mustApp("omnetpp", 560, []Phase{
		{WorkFrac: 1.0, Threads: 8, MemBound: 0.55, IPCBig: 0.70, IPCLittle: 0.40},
	}),
	"gamess": mustApp("gamess", 1350, []Phase{
		{WorkFrac: 1.0, Threads: 8, MemBound: 0.08, IPCBig: 2.0, IPCLittle: 0.95},
	}),
	"gromacs": mustApp("gromacs", 1250, []Phase{
		{WorkFrac: 1.0, Threads: 8, MemBound: 0.14, IPCBig: 1.8, IPCLittle: 0.85},
	}),
	"dealII": mustApp("dealII", 1050, []Phase{
		{WorkFrac: 1.0, Threads: 8, MemBound: 0.30, IPCBig: 1.5, IPCLittle: 0.70},
	}),

	// Training set (paper §V-A): different programs from the evaluation set.
	"swaptions": mustApp("swaptions", 950, []Phase{
		{WorkFrac: 0.04, Threads: 1, MemBound: 0.08, IPCBig: 1.8, IPCLittle: 0.88},
		{WorkFrac: 0.96, Threads: 8, MemBound: 0.10, IPCBig: 1.7, IPCLittle: 0.84},
	}),
	"vips": mustApp("vips", 880, []Phase{
		{WorkFrac: 0.50, Threads: 8, MemBound: 0.28, IPCBig: 1.3, IPCLittle: 0.62},
		{WorkFrac: 0.50, Threads: 6, MemBound: 0.33, IPCBig: 1.2, IPCLittle: 0.58},
	}),
	"astar": mustApp("astar", 540, []Phase{
		{WorkFrac: 1.0, Threads: 8, MemBound: 0.50, IPCBig: 0.8, IPCLittle: 0.45},
	}),
	"perlbench": mustApp("perlbench", 980, []Phase{
		{WorkFrac: 1.0, Threads: 8, MemBound: 0.25, IPCBig: 1.5, IPCLittle: 0.72},
	}),
	"milc": mustApp("milc", 460, []Phase{
		{WorkFrac: 1.0, Threads: 8, MemBound: 0.70, IPCBig: 0.5, IPCLittle: 0.30},
	}),
	"namd": mustApp("namd", 1200, []Phase{
		{WorkFrac: 1.0, Threads: 8, MemBound: 0.12, IPCBig: 1.8, IPCLittle: 0.86},
	}),
}

// Lookup returns a fresh instance of a named application.
func Lookup(name string) (*App, error) {
	a, ok := catalog[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown application %q", name)
	}
	return a.Clone(), nil
}

// MustLookup is Lookup for known-good names in tests and experiment tables.
func MustLookup(name string) *App {
	a, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return a
}

// EvaluationSPEC lists the SPEC06 evaluation programs in the paper's order.
func EvaluationSPEC() []string {
	return []string{"h264ref", "mcf", "omnetpp", "gamess", "gromacs", "dealII"}
}

// EvaluationPARSEC lists the PARSEC evaluation programs in the paper's order.
func EvaluationPARSEC() []string {
	return []string{"blackscholes", "bodytrack", "facesim", "fluidanimate",
		"raytrace", "x264", "canneal", "streamcluster"}
}

// TrainingSet lists the identification training programs.
func TrainingSet() []string {
	return []string{"swaptions", "vips", "astar", "perlbench", "milc", "namd"}
}

// halfThreads returns a copy of an app with its thread counts halved
// (4-threaded PARSEC / 4 SPEC copies for the heterogeneous mixes).
func halfThreads(a *App) *App {
	c := a.Clone()
	for i := range c.phases {
		th := c.phases[i].Threads / 2
		if th < 1 {
			th = 1
		}
		c.phases[i].Threads = th
	}
	c.total /= 2
	return c
}

// HeterogeneousMixes returns the four mixes of §VI-C: blmc, stga, blst, mcga.
func HeterogeneousMixes() []*Mix {
	bl := func() *App { return halfThreads(MustLookup("blackscholes")) }
	mc := func() *App { return halfThreads(MustLookup("mcf")) }
	st := func() *App { return halfThreads(MustLookup("streamcluster")) }
	ga := func() *App { return halfThreads(MustLookup("gamess")) }
	return []*Mix{
		NewMix("blmc", bl(), mc()),
		NewMix("stga", st(), ga()),
		NewMix("blst", bl(), st()),
		NewMix("mcga", mc(), ga()),
	}
}
