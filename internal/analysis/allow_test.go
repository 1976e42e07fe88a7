package analysis

import (
	"slices"
	"strings"
	"testing"
)

// FuzzAllowDirective checks the directive parser on random comment text.
// It never panics; a comment is a directive exactly when it is
// //c4vet:allow followed by nothing, a space or a tab; a directive is
// well-formed exactly when its first field names a known analyzer and a
// reason follows; and the reason is the remaining fields joined by single
// spaces. The seeds are directives from the repository and the malformed
// shapes the driver tests use.
func FuzzAllowDirective(f *testing.F) {
	for _, seed := range []string{
		"//c4vet:allow wallclock Report.Wall is an operator-facing duration measured at the edge; no simulation state depends on it",
		"//c4vet:allow ctxleak session runs deliberately outlive the POST that starts them; DELETE and Shutdown cancel via e.cancel",
		"//c4vet:allow mapiterfloat fixture: documents the suppression path",
		"//c4vet:allow wallclock",
		"//c4vet:allow nosuchpass because reasons",
		"//c4vet:allow",
		"//c4vet:allow \t wallclock \t two  spaced   reason ",
		"//c4vet:allowwallclock glued to the prefix",
		"// c4vet:allow wallclock not at the comment start",
		"/*c4vet:allow wallclock block comment*/",
	} {
		f.Add(seed)
	}
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	f.Fuzz(func(t *testing.T, text string) {
		d, ok := parseDirective(text, known)
		directive := text == allowPrefix || strings.HasPrefix(text, allowPrefix+" ") || strings.HasPrefix(text, allowPrefix+"\t")
		if ok != directive {
			t.Fatalf("%q: parsed as a directive %v, want %v", text, ok, directive)
		}
		if !ok {
			return
		}
		fields := strings.Fields(text[len(allowPrefix):])
		if wellFormed := len(fields) >= 2 && known[fields[0]]; (d.bad == "") != wellFormed {
			t.Fatalf("%q: bad = %q, want well-formed %v", text, d.bad, wellFormed)
		}
		if d.bad != "" {
			return
		}
		if d.name != fields[0] || !slices.Equal(strings.Fields(d.reason), fields[1:]) ||
			strings.Join(strings.Fields(d.reason), " ") != d.reason {
			t.Fatalf("%q: parsed analyzer %q, reason %q; want %q and %q joined by single spaces", text, d.name, d.reason, fields[0], fields[1:])
		}
	})
}
