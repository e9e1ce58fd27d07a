package repro_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// layers ranks every package under internal/ and cmd/ by layer, leaf
// packages first: a package may import only packages of an earlier layer,
// never a peer of its own. A new package must be placed here, and a
// deleted one taken out.
var layers = [][]string{
	{"internal/vec", "internal/fault", "internal/focusmodel", "internal/lru", "internal/sched", "internal/format"},
	{"internal/frame", "internal/kvstore"},
	{"internal/codec", "internal/vidsim", "internal/tier"},
	{"internal/ops", "internal/segment"},
	{"internal/profile"},
	{"internal/core", "internal/retrieve"},
	{"internal/tenant", "internal/results", "internal/erode", "internal/ingest", "internal/repair"},
	{"internal/query"},
	{"internal/store", "internal/experiments"},
	{"internal/server", "internal/sub"},
	{"internal/api"},
	{"internal/cluster"},
	{"cmd/vbench", "cmd/vstore"},
}

// TestImportLayering: no non-test file under internal/ or cmd/ imports a
// package of this module in its own layer or a later one — e.g. server
// importing sub, api or cluster, or sub importing server or api.
func TestImportLayering(t *testing.T) {
	rank := map[string]int{}
	for i, layer := range layers {
		for _, p := range layer {
			rank[p] = i
		}
	}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	checked := 0
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.IsDir() {
				if strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			pkg := filepath.ToSlash(filepath.Dir(path))
			own, ok := rank[pkg]
			if !ok {
				t.Errorf("%s: package %s has no place in layers", path, pkg)
				return nil
			}
			seen[pkg] = true
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				target, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					return err
				}
				dep, ok := strings.CutPrefix(target, "repro/")
				if !ok {
					continue
				}
				checked++
				if r, ok := rank[dep]; !ok || r >= own {
					t.Errorf("%s: %s imports %s, which layers does not place below it", path, pkg, dep)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if checked == 0 {
		t.Fatal("no import of this module found: the scan is broken")
	}
	for p := range rank {
		if !seen[p] {
			t.Errorf("layers ranks %s, which has no non-test Go file", p)
		}
	}
}
