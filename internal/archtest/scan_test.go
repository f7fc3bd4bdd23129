package archtest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// module is the import path of the repository's root module; bench/ is
// the module module+"/bench", so one rule maps a directory to its import
// path in both.
const module = "seqtx"

// file is one parsed Go source file.
type file struct {
	path  string // slash-separated, from the repository root
	fset  *token.FileSet
	ast   *ast.File
	lines []string
}

// hit is one place a query flags.
type hit struct {
	file *file // nil for a finding that belongs to no file
	line int
	what string
	fn   string // the enclosing function, where the query records it
}

func (h hit) String() string {
	if h.file == nil {
		return h.what
	}
	return h.file.path + ":" + strconv.Itoa(h.line) + ": " + h.what
}

// at makes a hit at pos in f.
func (f *file) at(pos token.Pos, what string) hit {
	return hit{file: f, line: f.fset.Position(pos).Line, what: what}
}

// pkgPath is the import path of the package f belongs to.
func (f *file) pkgPath() string {
	if dir := filepath.ToSlash(filepath.Dir(f.path)); dir != "." {
		return module + "/" + dir
	}
	return module
}

// imports maps each name f binds to an imported package to its path.
func (f *file) imports() map[string]string {
	m := make(map[string]string, len(f.ast.Imports))
	for _, spec := range f.ast.Imports {
		path, _ := strconv.Unquote(spec.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if spec.Name != nil {
			name = spec.Name.Name
		}
		m[name] = path
	}
	return m
}

// parse parses src as the file at path.
func parse(path string, src []byte) (*file, error) {
	fset := token.NewFileSet()
	tree, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	return &file{path: path, fset: fset, ast: tree, lines: strings.Split(string(src), "\n")}, nil
}

// loadRepo parses every .go file under root: both modules, tests included.
// It skips dot directories (.git, build output), this package, whose
// table spells out every pattern it forbids, and internal/mutants, whose
// table plants them.
func loadRepo(t *testing.T, root string) []*file {
	t.Helper()
	var files []*file
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "internal/archtest" || rel == "internal/mutants") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parse(rel, src)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// repoRoot finds the directory holding the root go.mod above the test's
// working directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module "+module+"\n") {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod of module " + module + " above the working directory")
		}
		dir = parent
	}
}

// scope is the set of files a row scans, as its grep had it.
type scope struct {
	// paths are files, "dir/*.go" globs (one directory, not below it) or
	// directories walked recursively ("." is the whole repository, bench/
	// included).
	paths []string
	tests bool     // _test.go files too
	skip  []string // directories left out, with everything below them
}

func (s scope) has(path string) bool {
	if !s.tests && strings.HasSuffix(path, "_test.go") {
		return false
	}
	for _, d := range s.skip {
		if strings.HasPrefix(path, d+"/") {
			return false
		}
	}
	for _, p := range s.paths {
		if strings.HasSuffix(p, ".go") {
			if ok, _ := filepath.Match(p, path); ok {
				return true
			}
		} else if p == "." || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// files picks the files of all that are in scope.
func (s scope) files(all []*file) []*file {
	var in []*file
	for _, f := range all {
		if s.has(f.path) {
			in = append(in, f)
		}
	}
	return in
}

// A query flags the places in files that break a rule.
type query func(files []*file) []hit

// grep flags each line that matches the regular expression, comments and
// strings included, as `grep -E` does. It remembers each file's lines, so
// the planted pass rescans only the fragment.
func grep(expr string) query {
	re := regexp.MustCompile(expr)
	lits := leadingLiterals(expr)
	seen := map[*file][]hit{}
	return func(files []*file) []hit {
		var hits []hit
		for _, f := range files {
			fh, ok := seen[f]
			if !ok {
				for i, line := range f.lines {
					if mayMatch(line, lits) && re.MatchString(line) {
						fh = append(fh, hit{file: f, line: i + 1, what: strings.TrimSpace(line)})
					}
				}
				seen[f] = fh
			}
			hits = append(hits, fh...)
		}
		return hits
	}
}

// leadingLiterals returns the literal each alternative of expr starts
// with, or nil when one starts with none: a line holding none of them
// cannot match, and strings.Contains is far cheaper than the regexp.
func leadingLiterals(expr string) []string {
	tree, err := syntax.Parse(expr, syntax.Perl)
	if err != nil {
		return nil
	}
	alts := []*syntax.Regexp{tree}
	if tree.Op == syntax.OpAlternate {
		alts = tree.Sub
	}
	var lits []string
	for _, alt := range alts {
		lit, _ := regexp.MustCompile(alt.String()).LiteralPrefix()
		if lit == "" {
			return nil
		}
		lits = append(lits, lit)
	}
	return lits
}

// mayMatch reports whether line holds one of lits (always, for nil lits).
func mayMatch(line string, lits []string) bool {
	for _, lit := range lits {
		if strings.Contains(line, lit) {
			return true
		}
	}
	return lits == nil
}

// uses flags every reference pkg.Name (a call or a value) to a name of
// the package imported from path for which match holds. Each hit names
// the function the reference sits in.
func uses(path string, match func(name string) bool) query {
	return func(files []*file) []hit {
		var hits []hit
		for _, f := range files {
			imports := f.imports()
			for _, decl := range f.ast.Decls {
				where := funcName(decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] == path && match(sel.Sel.Name) {
							h := f.at(sel.Pos(), x.Name+"."+sel.Sel.Name+" in "+where)
							h.fn = where
							hits = append(hits, h)
						}
					}
					return true
				})
			}
		}
		return hits
	}
}

// funcName is the name of the function decl declares, or "package scope".
func funcName(decl ast.Decl) string {
	if fn, ok := decl.(*ast.FuncDecl); ok {
		return fn.Name.Name
	}
	return "package scope"
}

// named matches exactly the given names.
func named(names ...string) func(string) bool {
	return func(name string) bool {
		for _, n := range names {
			if name == n {
				return true
			}
		}
		return false
	}
}

// goStmts flags every go statement whose call match accepts (nil: all).
func goStmts(match func(call ast.Expr) bool) query {
	return func(files []*file) []hit {
		var hits []hit
		for _, f := range files {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok && (match == nil || match(g.Call.Fun)) {
					hits = append(hits, f.at(g.Pos(), "go "+render(g.Call.Fun)))
				}
				return true
			})
		}
		return hits
	}
}

// methodOf reports whether fun is recv.<method>.
func methodOf(recv string) func(ast.Expr) bool {
	return func(fun ast.Expr) bool {
		sel, ok := fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		x, ok := sel.X.(*ast.Ident)
		return ok && x.Name == recv
	}
}

// render spells a call's function the way the source does, for messages.
func render(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return render(e.X) + "." + e.Sel.Name
	case *ast.FuncLit:
		return "func"
	}
	return "(…)"
}

// calls flags each call whose function ends in the selector chain path:
// calls("Sender", "Step") flags x.Sender.Step(…) and a.b.Sender.Step(…).
// Each hit names the function the call sits in.
func calls(path ...string) query {
	return func(files []*file) []hit {
		var hits []hit
		for _, f := range files {
			for _, decl := range f.ast.Decls {
				where := funcName(decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					if c, ok := n.(*ast.CallExpr); ok && endsIn(c.Fun, path) {
						h := f.at(c.Pos(), "."+strings.Join(path, ".")+"( in "+where)
						h.fn = where
						hits = append(hits, h)
					}
					return true
				})
			}
		}
		return hits
	}
}

// endsIn reports whether e is a selector chain …x.path[0].….path[n-1].
func endsIn(e ast.Expr, path []string) bool {
	for i := len(path) - 1; i >= 0; i-- {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != path[i] {
			return false
		}
		e = sel.X
	}
	return true
}

// holding flags each top-level declaration that holds every one of the
// literals: the fingerprint of a routine, however its lines are spelled.
func holding(lits ...string) query {
	return func(files []*file) []hit {
		var hits []hit
		for _, f := range files {
			for _, decl := range f.ast.Decls {
				found := map[string]bool{}
				ast.Inspect(decl, func(n ast.Node) bool {
					if lit, ok := n.(*ast.BasicLit); ok {
						found[strings.ToLower(lit.Value)] = true
					}
					return true
				})
				all := true
				for _, l := range lits {
					all = all && found[l]
				}
				if all {
					hits = append(hits, f.at(decl.Pos(), "holds "+strings.Join(lits, ", ")))
				}
			}
		}
		return hits
	}
}

// allocsIn flags what allocates inside each func literal that is the
// value of one of the named fields of a composite literal, and inside
// each function or method of one of the names: a call of the builtin
// make or new, a &T{…} literal, an x.Clone() or slices.Clone call, and a
// string(…) conversion. It passes over a string(…) that indexes a map,
// which the compiler does not copy.
func allocsIn(names ...string) query {
	return func(files []*file) []hit {
		var hits []hit
		for _, f := range files {
			scan := func(name string, body *ast.BlockStmt) {
				lookups := map[ast.Node]bool{} // string(…) calls that index a map
				ast.Inspect(body, func(n ast.Node) bool {
					what := ""
					switch n := n.(type) {
					case *ast.IndexExpr:
						lookups[n.Index] = true
					case *ast.CallExpr:
						switch fun := n.Fun.(type) {
						case *ast.Ident:
							switch fun.Name {
							case "make", "new":
								what = fun.Name
							case "string":
								if !lookups[n] {
									what = "string(…)"
								}
							}
						case *ast.SelectorExpr:
							if fun.Sel.Name == "Clone" && (len(n.Args) == 0 || isIdent(fun.X, "slices")) {
								what = render(fun) + "()"
							}
						}
					case *ast.UnaryExpr:
						if _, ok := n.X.(*ast.CompositeLit); ok && n.Op == token.AND {
							what = "&T{…}"
						}
					}
					if what != "" {
						hits = append(hits, f.at(n.Pos(), what+" in "+name))
					}
					return true
				})
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body != nil && slices.Contains(names, n.Name.Name) {
						scan(n.Name.Name, n.Body)
						return false
					}
				case *ast.KeyValueExpr:
					key, ok := n.Key.(*ast.Ident)
					if fn, isFunc := n.Value.(*ast.FuncLit); ok && isFunc && slices.Contains(names, key.Name) {
						scan(key.Name, fn.Body)
						return false
					}
				}
				return true
			})
		}
		return hits
	}
}

// isIdent reports whether e is the identifier name.
func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// anyOf flags what any of the queries flags.
func anyOf(qs ...query) query {
	return func(files []*file) []hit {
		var hits []hit
		for _, q := range qs {
			hits = append(hits, q(files)...)
		}
		return hits
	}
}

// confined flags what q finds outside the places home accepts, and flags
// the rule itself when q finds nothing at home: the rule is that a thing
// happens in one place, not that it stops happening.
func confined(q query, where string, home func(h hit) bool) query {
	return func(files []*file) []hit {
		var out []hit
		found := false
		for _, h := range q(files) {
			if home(h) {
				found = true
			} else {
				out = append(out, h)
			}
		}
		if !found {
			out = append(out, hit{what: "nothing found in " + where})
		}
		return out
	}
}

// onlyFrom flags what q finds outside the named functions, and each
// named function in which q does not find exactly one place: the rule is
// that these functions, and only they, each do the thing once.
func onlyFrom(q query, names ...string) query {
	return func(files []*file) []hit {
		var out []hit
		found := map[string]int{}
		for _, h := range q(files) {
			if slices.Contains(names, h.fn) {
				found[h.fn]++
			} else {
				out = append(out, h)
			}
		}
		for _, name := range names {
			if found[name] != 1 {
				out = append(out, hit{what: strconv.Itoa(found[name]) + " places in " + name + ", want 1"})
			}
		}
		return out
	}
}

// inFile accepts a hit in the file at path.
func inFile(path string) func(hit) bool {
	return func(h hit) bool { return h.file != nil && h.file.path == path }
}

// inFunc accepts a hit inside a function called name.
func inFunc(name string) func(hit) bool {
	return func(h hit) bool { return h.fn == name }
}
