package perfplay_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// settingStructs are the library's settings: the exported fields of each
// are what a caller can set. Keys are package directories.
var settingStructs = map[string][]string{
	"internal/pipeline":    {"Request", "Options"},
	"internal/replay":      {"Options"},
	"internal/ulcp":        {"Options"},
	"internal/sim":         {"Config"},
	"internal/elision":     {"Options"},
	"internal/workload":    {"Config"},
	"internal/experiments": {"Config"},
	"internal/corpus":      {"Options"},
	"internal/journal":     {"Options"},
}

// TestEverySettingHasACaller: every exported field of a settings struct
// is set outside its own package — as a key of a composite literal of
// that type, or on the left of a `.Field =` assignment, in a non-test
// file under cmd/, internal/ or bench/ — or has a row in
// docs/ARCHITECTURE.md's "Surface audit verdicts" that names it as
// `pkg.Type.Field` and keeps it (a verdict starting "kept"; a row
// recording its removal does not exempt it). A setting only its own
// tests set is a constant or an unexported seam instead. The assignment
// match goes by field name alone, without types, so it can only err
// towards passing.
func TestEverySettingHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // package directory → non-test files
	for _, root := range []string{"cmd", "internal", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			files[dir] = append(files[dir], f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Per package directory: set holds "pkg.Type.Field" for every field
	// set by key in a literal of the type, and assigned every field name
	// assigned to.
	set := map[string]map[string]bool{}
	assigned := map[string]map[string]bool{}
	for dir, pkgFiles := range files {
		set[dir], assigned[dir] = map[string]bool{}, map[string]bool{}
		for _, f := range pkgFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					sel, ok := n.Type.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					pkg, ok := sel.X.(*ast.Ident)
					if !ok {
						return true
					}
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								set[dir][pkg.Name+"."+sel.Sel.Name+"."+key.Name] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							assigned[dir][sel.Sel.Name] = true
						}
					}
				}
				return true
			})
		}
	}

	doc, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, verdicts, ok := strings.Cut(string(doc), "\n## Surface audit verdicts\n")
	if !ok {
		t.Fatal(`docs/ARCHITECTURE.md has no "Surface audit verdicts" section`)
	}
	verdicts, _, _ = strings.Cut(verdicts, "\n## ")
	kept := func(name string) bool {
		for _, row := range strings.Split(verdicts, "\n") {
			cells := strings.Split(row, " | ")
			if len(cells) >= 3 && strings.Contains(cells[0], "`"+name+"`") && strings.HasPrefix(cells[1], "kept") {
				return true
			}
		}
		return false
	}

	checked := 0
	for dir, types := range settingStructs {
		pkg := filepath.Base(dir)
		for _, typ := range types {
			fields, found := exportedFields(files[dir], typ)
			if !found {
				t.Errorf("no struct %s.%s in %s", pkg, typ, dir)
			}
			for _, field := range fields {
				checked++
				name := pkg + "." + typ + "." + field
				caller := false
				for other := range files {
					if other != dir && (set[other][name] || assigned[other][field]) {
						caller = true
						break
					}
				}
				if !caller && !kept(name) {
					t.Errorf("%s is set nowhere outside %s, and no \"Surface audit verdicts\" row keeps `%s`", name, dir, name)
				}
			}
		}
	}
	t.Logf("%d settings checked", checked)
}

// exportedFields returns the exported field names of the struct type
// typ declared in files, and whether files declare it.
func exportedFields(files []*ast.File, typ string) (fields []string, found bool) {
	for _, f := range files {
		obj := f.Scope.Lookup(typ)
		if obj == nil {
			continue
		}
		spec, ok := obj.Decl.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := spec.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, fl := range st.Fields.List {
			for _, n := range fl.Names {
				if n.IsExported() {
					fields = append(fields, n.Name)
				}
			}
		}
		return fields, true
	}
	return nil, false
}
