package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// pkgDecls is what one package under internal/ or cmd/ declares outside its
// tests: top-level names, and each type's fields and methods.
type pkgDecls struct {
	names   map[string]bool
	members map[string]map[string]bool // type name -> field and method names
}

func (d *pkgDecls) member(typ, name string) {
	if d.members[typ] == nil {
		d.members[typ] = map[string]bool{}
	}
	d.members[typ][name] = true
}

// has reports whether path (Name or Type.Member) is declared: a bare name
// may be any top-level declaration or any type's field or method.
func (d *pkgDecls) has(path []string) bool {
	switch len(path) {
	case 1:
		if d.names[path[0]] {
			return true
		}
		for _, m := range d.members {
			if m[path[0]] {
				return true
			}
		}
		return false
	case 2:
		return d.members[path[0]][path[1]]
	}
	return false
}

func (d *pkgDecls) add(f *ast.File) {
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				d.names[decl.Name.Name] = true
				continue
			}
			typ := decl.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			switch generic := typ.(type) {
			case *ast.IndexExpr:
				typ = generic.X
			case *ast.IndexListExpr:
				typ = generic.X
			}
			if id, ok := typ.(*ast.Ident); ok {
				d.member(id.Name, decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						d.names[n.Name] = true
					}
				case *ast.TypeSpec:
					d.names[spec.Name.Name] = true
					st, ok := spec.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fld := range st.Fields.List {
						for _, n := range fld.Names {
							d.member(spec.Name.Name, n.Name)
						}
					}
				}
			}
		}
	}
}

var (
	fenceRE    = regexp.MustCompile("(?s)```.*?```")
	codeSpanRE = regexp.MustCompile("`([^`]+)`")
	// A citation is a lower-case package name, not part of a path, then
	// one or two dotted names.
	citationRE = regexp.MustCompile(`(?:^|[^\w./-])([a-z][a-z0-9]*)\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`)
	testNameRE = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
)

// TestReadmeCitationsExist: every backticked `pkg.Name` in README.md, where
// pkg is a directory under internal/ or cmd/, names a func, type, method,
// field, var or const that package declares, and every cited Test, Fuzz or
// Benchmark function is declared in a _test.go file. Names with an
// underscore are metric names (`kvstore.get_us`), and `x.json` is a file.
func TestReadmeCitationsExist(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := map[string]*pkgDecls{}
	testFuncs := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					testFuncs[fn.Name.Name] = true
				}
			}
			return nil
		}
		dir := filepath.Dir(path)
		if parent := filepath.Dir(dir); parent != "internal" && parent != "cmd" {
			return nil
		}
		d := pkgs[filepath.Base(dir)]
		if d == nil {
			d = &pkgDecls{names: map[string]bool{}, members: map[string]map[string]bool{}}
			pkgs[filepath.Base(dir)] = d
		}
		d.add(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pkgs["server"] == nil || !testFuncs["TestReadmeCitationsExist"] {
		t.Fatal("walk found no packages or no tests")
	}

	cited := 0
	text := fenceRE.ReplaceAllString(string(readme), "")
	for _, span := range codeSpanRE.FindAllStringSubmatch(text, -1) {
		for _, m := range citationRE.FindAllStringSubmatch(span[1], -1) {
			d := pkgs[m[1]]
			if d == nil || strings.Contains(m[2], "_") || m[2] == "json" {
				continue
			}
			cited++
			if !d.has(strings.Split(m[2], ".")) {
				t.Errorf("README cites `%s.%s`, which package %s does not declare", m[1], m[2], m[1])
			}
		}
		for _, name := range testNameRE.FindAllString(span[1], -1) {
			cited++
			if !testFuncs[name] {
				t.Errorf("README cites %s, which no _test.go file declares", name)
			}
		}
	}
	if cited == 0 {
		t.Fatal("README cites nothing: the scan is broken")
	}
}
