package sparse

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// The bounds checks the compiler leaves in the row kernels, as counted with
// pinnedGo. It reports a site once per source position, and an inlined
// loop's sites all take the position of the call, so two counts pin the
// loops from two sides. kernelFileChecks are the sites in rowkernel.go
// itself: the re-slices of Hoist and Lanes4 (two, and two per lane), and the
// out-of-line copies of the row loops, which know nothing of their caller's
// slices (Colid[k] and, per lane, the lookup in x) — a check added to a
// loop's source shows up here. callSiteChecks are the sites on the lines
// that call a RowDot*, where the loops that actually run report: one per
// strict call (mulRows and mulVec4: the lookup in x that makes a strict
// product panic on a corrupted column; the range is validated once per
// row), none per robust call (mulRowsRobust and abft.Protected's products:
// the clamp and Hoist's re-slice prove the range — a caller that stops
// passing hoisted slices shows up here), plus the two row-pointer loads of
// MulVecRowRobust.
const (
	pinnedGo         = "go1.24"
	kernelFileChecks = 22
	callSiteChecks   = 4
)

// TestBoundsCheckBudget fails when an edit puts a bounds check back into a
// row loop: it compiles the packages that hold products with the compiler's
// check_bce debug output and counts the IsInBounds/IsSliceInBounds sites of
// the kernel file and of every line that inlines a kernel. Fewer is fine —
// lower the constants.
func TestBoundsCheckBudget(t *testing.T) {
	if !strings.HasPrefix(runtime.Version(), pinnedGo) {
		t.Skipf("the committed counts are %s's; this is %s", pinnedGo, runtime.Version())
	}
	if v, err := exec.Command("go", "env", "GOVERSION").Output(); err != nil || strings.TrimSpace(string(v)) != runtime.Version() {
		t.Skipf("the go command on PATH (%q, %v) is not the toolchain that built this test (%s)", v, err, runtime.Version())
	}
	out, err := exec.Command("go", "build", "-gcflags=-d=ssa/check_bce/debug=1",
		"repro/internal/sparse", "repro/internal/abft").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// A site is reported under its package's "# repro/internal/<pkg>" header
	// with a path relative to wherever the package was compiled — the go
	// command replays cached compiler output as first printed — so only the
	// file's base name is taken from it.
	site := regexp.MustCompile(`^(\S+\.go):(\d+):\d+: Found Is(?:Slice)?InBounds$`)
	sources := map[string][]string{}
	var inKernelFile, atCallSites int
	pkg := ""
	for _, l := range strings.Split(string(out), "\n") {
		if p, ok := strings.CutPrefix(l, "# repro/internal/"); ok {
			pkg = strings.Fields(p)[0]
			continue
		}
		m := site.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		file := filepath.Join("..", pkg, filepath.Base(m[1]))
		if filepath.Base(file) == "rowkernel.go" {
			inKernelFile++
			continue
		}
		if _, ok := sources[file]; !ok {
			sources[file] = readLines(t, file)
		}
		if line, _ := strconv.Atoi(m[2]); strings.Contains(sources[file][line-1], "RowDot") {
			atCallSites++
		}
	}
	if inKernelFile == 0 {
		t.Fatalf("no bounds-check site reported for rowkernel.go; compiler output:\n%s", out)
	}
	if inKernelFile > kernelFileChecks || atCallSites > callSiteChecks {
		t.Errorf("bounds checks: %d in rowkernel.go (budget %d), %d on lines calling a row kernel (budget %d)",
			inKernelFile, kernelFileChecks, atCallSites, callSiteChecks)
	}
	t.Logf("bounds checks: %d in rowkernel.go, %d on lines calling a row kernel", inKernelFile, atCallSites)
}

func readLines(t *testing.T, file string) []string {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(src), "\n")
}
