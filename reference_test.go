package pdwqo

import (
	"embed"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"strconv"
	"strings"
	"testing"
)

// moduleSource is the module's Go source as the go command builds it, so
// a file an -overlay replaces is read here in its replaced form.
//
//go:embed *.go bench/*.go cmd/*/*.go examples/*/*.go internal/*/*.go internal/*/*/*.go
var moduleSource embed.FS

// TestOnlyTheReferenceEvaluatesRows: the row engine's scalar evaluator,
// exec.Eval over an exec.NewEnv, is called by the reference executor
// (internal/exec/run.go) and by Eval's own recursion, and by no other
// code of the module. The nodes and constant folding evaluate every
// scalar as vectors, so each differential test compares two evaluators,
// and a bug in either one shows instead of appearing on both sides.
func TestOnlyTheReferenceEvaluatesRows(t *testing.T) {
	const execDir = "internal/exec"
	recursion := map[string]bool{"Eval": true, "evalBinary": true, "evalBool": true}
	allowed := func(file, fn string) bool {
		return file == execDir+"/run.go" || file == execDir+"/eval.go" && recursion[fn]
	}
	rowEval := map[string]bool{"Eval": true, "NewEnv": true}
	fset := token.NewFileSet()
	calls := 0
	err := fs.WalkDir(moduleSource, ".", func(file string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasSuffix(file, "_test.go") || strings.Contains(file, "testdata/") {
			return err
		}
		src, err := moduleSource.ReadFile(file)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, file, src, 0)
		if err != nil {
			return err
		}
		inExec := path.Dir(file) == execDir
		qual := "" // the name the file imports package exec under
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "pdwqo/"+execDir {
				qual = "exec"
				if imp.Name != nil {
					qual = imp.Name.Name
				}
			}
		}
		for _, decl := range f.Decls {
			fn := ""
			var body ast.Node = decl
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fd.Body == nil {
					continue
				}
				fn, body = fd.Name.Name, fd.Body
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				name := ""
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok && qual != "" && id.Name == qual {
						name = x.Sel.Name
					}
					ast.Inspect(x.X, visit) // x.Sel names a member, not package exec's Eval
					if !rowEval[name] {
						return false
					}
				case *ast.Ident:
					if inExec {
						name = x.Name
					}
				}
				if rowEval[name] {
					calls++
					if !allowed(file, fn) {
						t.Errorf("%s: %s uses the row engine's %s", fset.Position(n.Pos()), fn, name)
					}
					return false
				}
				return true
			}
			ast.Inspect(body, visit)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("no use of Eval or NewEnv found: the scan reads nothing")
	}
}
