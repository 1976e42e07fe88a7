package analysis

import (
	"go/token"
	"strings"
)

// Suppression directives. A finding is silenced by a comment of the form
//
//	//c4vet:allow <analyzer> <reason...>
//
// placed either at the end of the offending line or on its own line
// immediately above. The reason is mandatory: an allow without one is
// itself a finding, as is one naming an unknown analyzer or one that
// suppresses nothing. Directive findings are reported under the
// pseudo-analyzer name "allow" and cannot themselves be suppressed —
// the escape hatch must stay auditable.

// AllowName is the pseudo-analyzer name used for directive diagnostics.
const AllowName = "allow"

const allowPrefix = "//c4vet:allow"

type directive struct {
	pos    token.Position
	name   string // analyzer being suppressed
	reason string
	bad    string // non-empty: the directive itself is malformed
	used   bool
}

// collectDirectives scans one package's comments for allow directives.
// known maps valid analyzer names; malformed directives come back with
// bad set.
func collectDirectives(pkg *Package, known map[string]bool) []*directive {
	var out []*directive
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if d, ok := parseDirective(c.Text, known); ok {
					d.pos = pkg.Fset.Position(c.Pos())
					out = append(out, &d)
				}
			}
		}
	}
	return out
}

// parseDirective parses one comment's text. The comment is a directive
// when it is allowPrefix followed by nothing, a space or a tab; any other
// //c4vet:allowXyz token is not ours. A directive is well-formed when its
// first field names a known analyzer and a reason follows; otherwise bad
// says what is wrong.
func parseDirective(text string, known map[string]bool) (directive, bool) {
	rest, ok := strings.CutPrefix(text, allowPrefix)
	if !ok || rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return directive{}, false
	}
	var d directive
	fields := strings.Fields(rest)
	switch {
	case len(fields) == 0:
		d.bad = "allow directive names no analyzer (format: //c4vet:allow <analyzer> <reason>)"
	case !known[fields[0]]:
		d.name = fields[0]
		d.bad = "allow directive names unknown analyzer " + quoted(fields[0])
	case len(fields) == 1:
		d.name = fields[0]
		d.bad = "allow directive for " + quoted(fields[0]) + " has no reason; suppressions must say why"
	default:
		d.name = fields[0]
		d.reason = strings.Join(fields[1:], " ")
	}
	return d, true
}

func quoted(s string) string { return `"` + s + `"` }

// applyDirectives filters diags through the package's directives: a
// well-formed directive suppresses same-named findings on its own line
// (end-of-line placement), or — only when its own line has none — on the
// line below (standalone comment above the finding). A directive never
// covers both lines, so an end-of-line allow cannot leak onto the next
// statement. It returns the surviving findings plus one finding per
// malformed or unused directive.
func applyDirectives(diags []Diagnostic, dirs []*directive) []Diagnostic {
	matches := func(d *directive, diag Diagnostic, line int) bool {
		return d.bad == "" && d.name == diag.Analyzer &&
			d.pos.Filename == diag.Pos.Filename && line == diag.Pos.Line
	}
	suppressed := make([]bool, len(diags))
	for _, d := range dirs {
		for i, diag := range diags {
			if matches(d, diag, d.pos.Line) {
				d.used = true
				suppressed[i] = true
			}
		}
	}
	for _, d := range dirs {
		if d.used {
			continue
		}
		// One directive can cover several findings on the line below
		// (e.g. two rand calls in one expression) but never both its
		// own line and the next.
		for i, diag := range diags {
			if matches(d, diag, d.pos.Line+1) {
				suppressed[i] = true
				d.used = true
			}
		}
	}
	var out []Diagnostic
	for i, diag := range diags {
		if !suppressed[i] {
			out = append(out, diag)
		}
	}
	for _, d := range dirs {
		switch {
		case d.bad != "":
			out = append(out, Diagnostic{Analyzer: AllowName, Pos: d.pos, Message: d.bad})
		case !d.used:
			out = append(out, Diagnostic{Analyzer: AllowName, Pos: d.pos,
				Message: "allow directive for " + quoted(d.name) + " suppresses nothing; delete it"})
		}
	}
	return out
}
