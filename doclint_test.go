package repro_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// doclintPackages are the packages held to the exported-documentation
// standard (the community protocol and the recording wire format cross
// trust and process boundaries, and both tiers drive the failure-case
// lifecycle in internal/core, so their exported surface is API).
// Extend this list as packages stabilize.
var doclintPackages = []string{
	"internal/community",
	"internal/core",
	"internal/perfvc",
	"internal/replay",
}

// TestExportedIdentifiersDocumented is the `revive exported` equivalent,
// enforced at tier-1 with no external tooling: every exported type,
// function, method, variable, constant — and every exported field of an
// exported struct — in the listed packages must carry a doc comment.
func TestExportedIdentifiersDocumented(t *testing.T) {
	for _, dir := range doclintPackages {
		t.Run(dir, func(t *testing.T) {
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			for _, pkg := range pkgs {
				for _, file := range pkg.Files {
					for _, decl := range file.Decls {
						for _, miss := range undocumented(decl) {
							pos := fset.Position(miss.pos)
							t.Errorf("%s:%d: exported %s is undocumented", pos.Filename, pos.Line, miss.what)
						}
					}
				}
			}
		})
	}
}

// missing is one undocumented exported identifier.
type missing struct {
	what string
	pos  token.Pos
}

// undocumented collects the exported identifiers of one top-level
// declaration that lack a doc comment.
func undocumented(decl ast.Decl) []missing {
	var out []missing
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || exportedReceiver(d) == "" {
			return nil
		}
		if d.Doc == nil {
			out = append(out, missing{
				what: strings.TrimSpace("func "+exportedReceiver(d)) + " " + d.Name.Name,
				pos:  d.Pos(),
			})
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				if d.Doc == nil && s.Doc == nil {
					out = append(out, missing{what: "type " + s.Name.Name, pos: s.Pos()})
				}
				if st, ok := s.Type.(*ast.StructType); ok {
					out = append(out, undocumentedFields(s.Name.Name, st)...)
				}
			case *ast.ValueSpec:
				for _, name := range s.Names {
					if !name.IsExported() {
						continue
					}
					// A doc comment on the grouped decl covers the whole
					// const/var block (the iota-enum idiom documents each
					// member individually or the block as a whole).
					if d.Doc == nil && s.Doc == nil && s.Comment == nil {
						kind := "var"
						if d.Tok == token.CONST {
							kind = "const"
						}
						out = append(out, missing{what: kind + " " + name.Name, pos: name.Pos()})
					}
				}
			}
		}
	}
	return out
}

// undocumentedFields collects the exported, uncommented fields of an
// exported struct (a trailing line comment counts as documentation).
func undocumentedFields(typeName string, st *ast.StructType) []missing {
	var out []missing
	for _, f := range st.Fields.List {
		if f.Doc != nil || f.Comment != nil {
			continue
		}
		for _, name := range f.Names {
			if name.IsExported() {
				out = append(out, missing{
					what: fmt.Sprintf("field %s.%s", typeName, name.Name),
					pos:  name.Pos(),
				})
			}
		}
	}
	return out
}

// exportedReceiver renders a method's receiver type prefix ("(Foo) ") and
// reports whether the method belongs to the exported surface: plain
// functions return " " (exported), methods on unexported receivers "".
func exportedReceiver(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return " "
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	if !ok || !id.IsExported() {
		return ""
	}
	return "(" + id.Name + ") "
}
