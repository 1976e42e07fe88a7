package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Deprecated returns the deprecated-use analyzer: any reference to a
// declaration whose doc comment carries a standard "Deprecated:"
// paragraph is flagged, so new call sites of retired APIs fail CI instead
// of accreting, and an API with no references left can be deleted (as the
// positional facade constructors c4.NewEnv/NewNetwork/NewC4PMaster were).
// The analyzer accumulates deprecated declarations as packages are
// analyzed; because the driver visits packages in dependency order, a
// package's deprecations are always registered before its dependents are
// checked. Each driver run needs a fresh instance, hence the constructor.
func Deprecated() *Analyzer {
	registry := map[types.Object]string{}
	a := &Analyzer{
		Name: "deprecated",
		Doc:  "references to declarations documented as Deprecated:",
	}
	a.Run = func(pass *Pass) error {
		spans := registerDeprecated(pass, registry)
		inDeprecatedDecl := func(p token.Pos) bool {
			for _, s := range spans {
				if s.lo <= p && p < s.hi {
					return true
				}
			}
			return false
		}
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				note, isDep := registry[pass.TypesInfo.Uses[id]]
				if !isDep {
					return true
				}
				// References from inside another deprecated
				// declaration are fine: the retired APIs may
				// lean on each other until deleted together.
				if inDeprecatedDecl(id.Pos()) {
					return true
				}
				pass.Reportf(id.Pos(), "use of deprecated %s: %s", id.Name, note)
				return true
			})
		}
		return nil
	}
	return a
}

type posSpan struct{ lo, hi token.Pos }

// registerDeprecated records this package's Deprecated: declarations in
// the registry and returns their source spans.
func registerDeprecated(pass *Pass, registry map[types.Object]string) []posSpan {
	var spans []posSpan
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if note, ok := deprecationNote(d.Doc); ok {
					if obj := pass.TypesInfo.Defs[d.Name]; obj != nil {
						registry[obj] = note
						spans = append(spans, posSpan{d.Pos(), d.End()})
					}
				}
			case *ast.GenDecl:
				declNote, declDep := deprecationNote(d.Doc)
				for _, sp := range d.Specs {
					note, dep := declNote, declDep
					var names []*ast.Ident
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						if n, ok := deprecationNote(sp.Doc); ok {
							note, dep = n, true
						}
						names = []*ast.Ident{sp.Name}
					case *ast.ValueSpec:
						if n, ok := deprecationNote(sp.Doc); ok {
							note, dep = n, true
						}
						names = sp.Names
					}
					if !dep {
						continue
					}
					for _, name := range names {
						if obj := pass.TypesInfo.Defs[name]; obj != nil {
							registry[obj] = note
						}
					}
					spans = append(spans, posSpan{d.Pos(), d.End()})
				}
			}
		}
	}
	return spans
}

// deprecationNote extracts the first line of a doc comment's
// "Deprecated:" paragraph, following the godoc convention that the
// marker starts a line.
func deprecationNote(doc *ast.CommentGroup) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, line := range strings.Split(doc.Text(), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "Deprecated:"); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}
