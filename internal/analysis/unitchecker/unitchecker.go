// Package unitchecker lets a tmflint binary act as a `go vet -vettool`.
// It implements the vet command-line protocol that cmd/go speaks to an
// analysis tool, using only the standard library (the protocol is defined
// by cmd/go/internal/work.vetConfig; golang.org/x/tools/go/analysis/
// unitchecker is the reference implementation, which this mirrors):
//
//   - `tmflint -V=full` prints a versioned build ID (cmd/go hashes it into
//     the vet action cache key);
//   - `tmflint -flags` prints the tool's extra flags as JSON (none);
//   - `tmflint <file>.cfg` analyzes one package unit: the JSON config
//     names the source files and the export data of every dependency,
//     which cmd/go has already compiled.
//
// Type information comes from the gc export data via go/importer, so the
// analyzers see fully type-checked packages without this tool doing any
// build-system work of its own.
package unitchecker

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"encompass/internal/analysis/lint"
)

// Config mirrors cmd/go/internal/work.vetConfig, the JSON document cmd/go
// writes for each package unit. Fields this driver does not consult are
// retained so the document round-trips.
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the entry point for a vettool binary built from the given
// analyzers. It never returns.
func Main(analyzers ...*lint.Analyzer) {
	progname := filepath.Base(os.Args[0])
	log.SetFlags(0)
	log.SetPrefix(progname + ": ")

	if len(os.Args) == 2 {
		switch {
		case os.Args[1] == "-V=full" || os.Args[1] == "--V=full":
			printVersion(progname)
			os.Exit(0)
		case os.Args[1] == "-flags" || os.Args[1] == "--flags":
			// No tool-specific flags: cmd/go parses this to learn which
			// command-line flags it may forward to the tool.
			fmt.Println("[]")
			os.Exit(0)
		case os.Args[1] == "help" || os.Args[1] == "-help" || os.Args[1] == "--help":
			fmt.Fprintf(os.Stderr, "%s is a tmflint vettool; run via: go vet -vettool=$(command -v %s) ./...\n\nAnalyzers:\n", progname, progname)
			for _, a := range analyzers {
				doc, _, _ := strings.Cut(a.Doc, "\n")
				fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, doc)
			}
			os.Exit(0)
		}
	}
	if len(os.Args) != 2 || !strings.HasSuffix(os.Args[1], ".cfg") {
		log.Fatalf(`invoked directly; run via: go vet -vettool=$(command -v %s) ./...`, progname)
	}

	diags, err := Run(os.Args[1], analyzers)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
	os.Exit(0)
}

// printVersion emits the `-V=full` line cmd/go requires: at least three
// fields, the second "version", and (for "devel") a trailing buildID. The
// ID hashes the executable so the vet cache invalidates when the tool is
// rebuilt with new or changed analyzers.
func printVersion(progname string) {
	h := sha256.New()
	if f, err := os.Open(os.Args[0]); err == nil {
		_, _ = io.Copy(h, f)
		f.Close()
	}
	fmt.Printf("%s version devel buildID=%x\n", progname, h.Sum(nil))
}

// Run analyzes the package unit described by cfgFile and returns the
// rendered diagnostics.
func Run(cfgFile string, analyzers []*lint.Analyzer) ([]string, error) {
	raw, err := os.ReadFile(cfgFile)
	if err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return nil, fmt.Errorf("cannot decode JSON config file %s: %v", cfgFile, err)
	}

	// cmd/go expects the vetx (analysis facts) output file to exist after
	// every run, even for fact-free tools like this one.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("tmflint: no facts\n"), 0o666); err != nil {
			return nil, err
		}
	}
	if cfg.VetxOnly {
		// Dependency unit: only facts were wanted; there are none.
		return nil, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		// The invariants tmflint enforces are production-code disciplines;
		// test files exercise internals in ways the analyzers need not
		// constrain (and the analysistest harness covers them separately).
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, nil
			}
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		// path is a resolved package path, not a source import path.
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if mapped, ok := cfg.ImportMap[importPath]; ok {
			importPath = mapped
		}
		if importPath == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(importPath)
	})

	tc := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor(cfg.Compiler, build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil
		}
		return nil, fmt.Errorf("typecheck %s: %v", cfg.ImportPath, err)
	}

	diags, err := lint.RunAnalyzers(fset, files, pkg, info, analyzers)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(diags))
	for _, d := range diags {
		out = append(out, fmt.Sprintf("%s: [%s] %s", fset.Position(d.Pos), d.Analyzer, d.Message))
	}
	return out, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
