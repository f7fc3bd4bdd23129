package archtest

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// unreferenced flags every exported top-level func, type, var or const
// declared in a non-test file under internal/ that nothing among files
// names outside its own declaration, unless allow lists it
// ("pkg/path.Name") with its reason. It also flags an allow entry that
// names nothing unreferenced, so the list cannot outlive what it excuses,
// and one that gives no reason.
func unreferenced(allow map[string]string) query {
	return func(files []*file) []hit {
		type decl struct {
			f          *file
			pos        token.Pos
			start, end token.Pos // the declaration, whose own mentions do not count
		}
		decls := map[string]decl{}
		for _, f := range files {
			if !strings.HasPrefix(f.path, "internal/") {
				continue
			}
			add := func(id *ast.Ident, in ast.Node) {
				if id.IsExported() {
					decls[f.pkgPath()+"."+id.Name] = decl{f, id.Pos(), in.Pos(), in.End()}
				}
			}
			for _, d := range f.ast.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name, d)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(spec.Name, spec)
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								add(id, spec)
							}
						}
					}
				}
			}
		}

		used := map[string]bool{}
		for _, f := range files {
			own, imports := f.pkgPath(), f.imports()
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					// pkg.Name names an import's member; x.Name names a
					// field or method, never a top-level name of f's own.
					if x, ok := n.X.(*ast.Ident); ok {
						if path, ok := imports[x.Name]; ok {
							used[path+"."+n.Sel.Name] = true
							return false
						}
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Field:
					// A field or method name declares; only its type refers.
					ast.Inspect(n.Type, visit)
					return false
				case *ast.FuncDecl:
					// A method's name is not a reference to a func of the
					// same name.
					if n.Recv != nil {
						ast.Inspect(n.Recv, visit)
					}
					ast.Inspect(n.Type, visit)
					if n.Body != nil {
						ast.Inspect(n.Body, visit)
					}
					return false
				case *ast.Ident:
					key := own + "." + n.Name
					if d, ok := decls[key]; ok && (d.f != f || n.Pos() < d.start || n.Pos() >= d.end) {
						used[key] = true
					}
				}
				return true
			}
			ast.Inspect(f.ast, visit)
		}

		var hits []hit
		for key, d := range decls {
			if _, excused := allow[key]; !used[key] && !excused {
				hits = append(hits, d.f.at(d.pos, strings.TrimPrefix(key, module+"/")+" is named only in its declaration and in tests"))
			}
		}
		for key, reason := range allow {
			if _, ok := decls[key]; !ok || used[key] {
				hits = append(hits, hit{what: "allowlisted " + key + " is referenced or gone; drop its entry"})
			} else if strings.TrimSpace(reason) == "" {
				hits = append(hits, hit{what: "allowlisted " + key + " gives no reason"})
			}
		}
		sort.Slice(hits, func(i, j int) bool { return hits[i].String() < hits[j].String() })
		return hits
	}
}
