package aanoc

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// TestMapRangesAreOrderFree is the determinism lint: Go randomises map
// iteration order, so a range over a map in non-test code is a way for
// identical runs to print different bytes — the DPQ monitor's straggler
// report and Calibrate's misses both did. Every such loop in the root
// package, cmd/ and internal/ must carry a `// order-free: <reason>`
// comment, on its line or the line above, saying why its order cannot
// reach an output. The type checker, not a pattern, decides what is a
// map.
func TestMapRangesAreOrderFree(t *testing.T) {
	dirs := []string{"."}
	for _, root := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case d.IsDir():
				dirs = append(dirs, p)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Imports are type-checked from source too, the standard library
	// included; without cgo that needs no C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	for _, dir := range dirs {
		bp, err := build.Default.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			continue
		} else if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		if _, err := conf.Check(path.Join("aanoc", filepath.ToSlash(dir)), fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", dir, err)
		}
		for _, f := range files {
			noted := map[int]bool{}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if reason, ok := strings.CutPrefix(c.Text, "// order-free:"); ok && strings.TrimSpace(reason) != "" {
						noted[fset.Position(c.Slash).Line] = true
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if r, ok := n.(*ast.RangeStmt); ok {
					if _, isMap := info.TypeOf(r.X).Underlying().(*types.Map); isMap {
						if line := fset.Position(r.For).Line; !noted[line] && !noted[line-1] {
							t.Errorf("%s: range over a map without an // order-free: <reason> comment", fset.Position(r.For))
						}
					}
				}
				return true
			})
		}
	}
}
