package analysis_test

import (
	"go/token"
	"strings"
	"testing"

	"c4/internal/analysis"
)

// runOn type-checks one in-memory file under path and runs the given
// analyzers through the full driver (suppression layer included).
func runOn(t *testing.T, path, src string, analyzers ...*analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	pkg, err := analysis.CheckFixtureFiles(fset, path, []analysis.FixtureFile{{Name: "src.go", Src: src}})
	if err != nil {
		t.Fatalf("type-checking: %v", err)
	}
	diags, err := analysis.RunAnalyzers([]*analysis.Package{pkg}, analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	return diags
}

func messages(diags []analysis.Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Directive hygiene: the escape hatch itself is linted. A reason is
// mandatory, the analyzer name must exist, and a directive that
// suppresses nothing is reported so stale allows cannot accumulate.

func TestAllowDirectiveWithoutReason(t *testing.T) {
	diags := runOn(t, "c4/internal/x", `package x

import "time"

func f() {
	//c4vet:allow wallclock
	_ = time.Now()
}
`, analysis.WallClock)
	out := messages(diags)
	if !strings.Contains(out, `has no reason`) {
		t.Fatalf("want a no-reason directive finding, got:\n%s", out)
	}
	// The reasonless directive must NOT suppress: the wallclock finding
	// survives alongside the directive finding.
	if !strings.Contains(out, "time.Now") {
		t.Fatalf("reasonless directive suppressed the finding:\n%s", out)
	}
}

func TestAllowDirectiveUnknownAnalyzer(t *testing.T) {
	diags := runOn(t, "c4/internal/x", `package x

func f() {
	//c4vet:allow nosuchpass because reasons
	_ = 1
}
`, analysis.WallClock)
	out := messages(diags)
	if !strings.Contains(out, `unknown analyzer "nosuchpass"`) {
		t.Fatalf("want unknown-analyzer finding, got:\n%s", out)
	}
}

func TestAllowDirectiveUnused(t *testing.T) {
	diags := runOn(t, "c4/internal/x", `package x

func f() {
	//c4vet:allow wallclock nothing here actually reads the clock
	_ = 1
}
`, analysis.WallClock)
	out := messages(diags)
	if !strings.Contains(out, `suppresses nothing; delete it`) {
		t.Fatalf("want unused-directive finding, got:\n%s", out)
	}
}

func TestAllowDirectiveEndOfLine(t *testing.T) {
	diags := runOn(t, "c4/internal/x", `package x

import "time"

func f() {
	_ = time.Now() //c4vet:allow wallclock end-of-line placement works too
}
`, analysis.WallClock)
	if len(diags) != 0 {
		t.Fatalf("want clean, got:\n%s", messages(diags))
	}
}

func TestAllowDirectiveDoesNotLeakAcrossLines(t *testing.T) {
	diags := runOn(t, "c4/internal/x", `package x

import "time"

func f() {
	_ = time.Now() //c4vet:allow wallclock only this line
	_ = time.Now()
}
`, analysis.WallClock)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "time.Now") {
		t.Fatalf("want exactly the second Now flagged, got:\n%s", messages(diags))
	}
}

// Cross-package deprecation: a dependent package referencing a
// deprecated declaration from its dependency is flagged — the case of a
// facade constructor retired in favour of an options-struct one.
func TestDeprecatedAcrossPackages(t *testing.T) {
	fset := token.NewFileSet()
	dep, err := analysis.CheckFixtureFiles(fset, "c4/internal/old", []analysis.FixtureFile{{
		Name: "old.go",
		Src: `package old

// New builds a thing.
//
// Deprecated: use Open.
func New() int { return 0 }

// Open is the supported constructor.
func Open() int { return 0 }
`,
	}})
	if err != nil {
		t.Fatalf("type-checking dep: %v", err)
	}
	// Type-check the dependent against the already-checked dependency.
	user, err := analysis.CheckFixtureFilesWithDeps(fset, "c4/internal/user", []analysis.FixtureFile{{
		Name: "user.go",
		Src: `package user

import "c4/internal/old"

func f() int { return old.New() + old.Open() }
`,
	}}, []*analysis.Package{dep})
	if err != nil {
		t.Fatalf("type-checking user: %v", err)
	}
	diags, err := analysis.RunAnalyzers([]*analysis.Package{dep, user}, []*analysis.Analyzer{analysis.Deprecated()})
	if err != nil {
		t.Fatalf("running: %v", err)
	}
	out := messages(diags)
	if !strings.Contains(out, "use of deprecated New: use Open.") {
		t.Fatalf("want cross-package deprecation finding, got:\n%s", out)
	}
	if strings.Contains(out, "deprecated Open") {
		t.Fatalf("non-deprecated sibling flagged:\n%s", out)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 finding, got:\n%s", out)
	}
}

// Diagnostics come back sorted by position regardless of analyzer
// registration order, so c4vet output is stable.
func TestDiagnosticsSorted(t *testing.T) {
	diags := runOn(t, "c4/internal/x", `package x

import (
	"math/rand"
	"time"
)

func f() {
	_ = rand.Intn(3)
	_ = time.Now()
	_ = rand.Float64()
}
`, analysis.WallClock, analysis.GlobalRand)
	if len(diags) != 3 {
		t.Fatalf("want 3 findings, got:\n%s", messages(diags))
	}
	for i := 1; i < len(diags); i++ {
		if diags[i].Pos.Line < diags[i-1].Pos.Line {
			t.Fatalf("findings out of order:\n%s", messages(diags))
		}
	}
}
