package forcefirst

import (
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"encompass/internal/analysis/analysistest"
)

func TestForceFirstDiscProc(t *testing.T) {
	analysistest.Run(t, Analyzer, "discproc")
}

func TestForceFirstTMF(t *testing.T) {
	analysistest.Run(t, Analyzer, "tmf")
}

func TestForceFirstPaxosCommit(t *testing.T) {
	analysistest.Run(t, Analyzer, "paxoscommit")
}

// TestVocabularyDeclared parses the real packages (no type-checking) and
// checks that every name in the vocabulary table is declared: a bare name
// in the vocabulary's own package, a "Type.Method" in the package that
// declares the type. A renamed forcer or exempt function would otherwise
// switch its rule off without a word.
func TestVocabularyDeclared(t *testing.T) {
	// The checked packages, then the ones declaring their foreign types.
	dirs := []string{"discproc", "tmf", "paxoscommit", "audit", "disk", "dbfile", "pair", "msg"}
	declared := map[string]map[string]bool{}
	anywhere := map[string]bool{}
	for _, dir := range dirs {
		declared[dir] = declaredNames(t, filepath.Join("..", "..", dir))
		maps.Copy(anywhere, declared[dir])
	}
	for pkg, v := range vocabularies {
		if declared[pkg] == nil {
			t.Errorf("vocabulary %s names no parsed package", pkg)
			continue
		}
		for _, names := range []map[string]bool{set(slices.Collect(maps.Keys(v.externalizers))...), v.terminalOnly, v.forcers, v.exempt} {
			for name := range names {
				if strings.Contains(name, ".") {
					if !anywhere[name] {
						t.Errorf("%s vocabulary: method %s is declared nowhere", pkg, name)
					}
				} else if !declared[pkg][name] {
					t.Errorf("%s vocabulary: %s is not declared in package %s", pkg, name, pkg)
				}
			}
		}
	}
}

// declaredNames returns every function and method name declared in the
// non-test Go files of dir, each method also as "Type.Method".
func declaredNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no Go files in %s: %v", dir, err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			if !isFunc {
				continue
			}
			names[fd.Name.Name] = true
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				recv := fd.Recv.List[0].Type
				if star, isStar := recv.(*ast.StarExpr); isStar {
					recv = star.X
				}
				if id, isIdent := recv.(*ast.Ident); isIdent {
					names[id.Name+"."+fd.Name.Name] = true
				}
			}
		}
	}
	return names
}
