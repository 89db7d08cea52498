package core

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"yukta/internal/board"
	"yukta/internal/lti"
	"yukta/internal/mat"
)

// TestNewPlatformMatchesSequentialFits asserts that the concurrent fits of
// NewPlatform produce the bits of calling the five fit methods one after
// another, whatever the number of workers.
func TestNewPlatformMatchesSequentialFits(t *testing.T) {
	td, err := CollectTrainingData(board.DefaultConfig(), DefaultIdentifyOptions())
	if err != nil {
		t.Fatal(err)
	}
	var want []*lti.StateSpace
	for _, fit := range []func() (*lti.StateSpace, error){td.HWModel, td.OSModel, td.HWOnlyModel, td.OSOnlyModel, td.MonoModel} {
		m, err := fit()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, m)
	}
	sameBits := func(a, b *mat.Matrix) bool {
		if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
			return false
		}
		for i := 0; i < a.Rows(); i++ {
			for j := 0; j < a.Cols(); j++ {
				if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
					return false
				}
			}
		}
		return true
	}
	names := []string{"HW", "OS", "HWOnly", "OSOnly", "Mono"}
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		p, err := NewPlatform(board.DefaultConfig(), DefaultIdentifyOptions())
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		for i, got := range []*lti.StateSpace{p.HW, p.OS, p.HWOnly, p.OSOnly, p.Mono} {
			w := want[i]
			if !sameBits(got.A, w.A) || !sameBits(got.B, w.B) || !sameBits(got.C, w.C) || !sameBits(got.D, w.D) ||
				math.Float64bits(got.Ts) != math.Float64bits(w.Ts) {
				t.Errorf("GOMAXPROCS %d: %s model differs from the sequential fit", procs, names[i])
			}
		}
	}
}

// TestNewPlatformReportsFirstSequentialError starves identification so that
// all five fits fail, each naming its own regressor count, and asserts that
// NewPlatform reports the HW fit's error, the first a sequential chain of
// fits would stop at, although Mono runs first.
func TestNewPlatformReportsFirstSequentialError(t *testing.T) {
	opt := IdentifyOptions{SamplesPerApp: 10, Hold: 3, Seed: 1}
	td, err := CollectTrainingData(board.DefaultConfig(), opt)
	if err != nil {
		t.Fatal(err)
	}
	_, want := td.HWModel()
	_, mono := td.MonoModel()
	if want == nil || mono == nil || want.Error() == mono.Error() {
		t.Fatalf("the HW and Mono fits must fail differently: %v / %v", want, mono)
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		_, err := NewPlatform(board.DefaultConfig(), opt)
		runtime.GOMAXPROCS(prev)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("GOMAXPROCS %d: NewPlatform error %v, want the HW fit's %v", procs, err, want)
		}
	}
}

// fusedOp matches one fused multiply-add in the compiler's assembly listing
// and captures its file:line.
var fusedOp = regexp.MustCompile(`\(([^()]+:\d+)\)\s+(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b`)

// TestIdentificationHasNoFusedMultiplyAdd cross-compiles every package under
// internal/ for arm64 with the assembly listing on and fails on any fused
// multiply-add, naming each site. Go may fuse x*y + z into one instruction on
// arm64 (but never on amd64), which rounds once instead of twice and so
// changes results; an explicit float64(x*y) conversion forbids it. The
// repository's own arithmetic then rounds alike on every architecture; calls
// into the standard library's math functions still may not.
// Functions from other packages inlined into a checked one are checked with
// it, and a new package is checked without being listed anywhere.
func TestIdentificationHasNoFusedMultiplyAdd(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	env := append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	list := exec.Command(goBin, "list", "./internal/...")
	list.Dir, list.Env = root, env
	pkgs, err := list.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	cmd := exec.Command(goBin, "build", "-gcflags=-S", "./internal/...")
	cmd.Dir, cmd.Env = root, env
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out)
	}
	listing := string(out)
	for _, pkg := range strings.Fields(string(pkgs)) {
		if !strings.Contains(listing, pkg+".") {
			t.Fatalf("the arm64 listing has no code of %s; the check would pass vacuously", pkg)
		}
	}
	seen := map[string]bool{}
	for _, m := range fusedOp.FindAllStringSubmatch(listing, -1) {
		site := m[1]
		if rel, err := filepath.Rel(root, site); err == nil && !strings.HasPrefix(rel, "..") {
			site = rel
		}
		seen[site+" "+m[2]] = true
	}
	if len(seen) > 0 {
		sites := make([]string, 0, len(seen))
		for s := range seen {
			sites = append(sites, s)
		}
		sort.Strings(sites)
		t.Fatalf("arm64 fuses %d multiply-add site(s); write float64(x*y) at each:\n  %s", len(sites), strings.Join(sites, "\n  "))
	}
}
