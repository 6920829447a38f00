// Package lint is the core of tmflint, the project's static-analysis
// suite. It is a deliberately small re-implementation of the
// golang.org/x/tools/go/analysis vocabulary — Analyzer, Pass, Diagnostic —
// built on the standard library only, because this repository carries no
// external dependencies. Each analyzer encodes one invariant the paper's
// reliability argument rests on (checkpoint-before-update, Figure 3
// transitions, deterministic replay, lock ordering); the driver in
// internal/analysis/unitchecker runs them under `go vet -vettool`.
//
// Deliberate exceptions are written in the source as
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or the line immediately above it. A directive must
// carry a reason; a bare directive is itself reported. Suppression is
// applied here, in RunAnalyzers, so both the vettool and the analysistest
// harness see identical behaviour.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow directives. It must be a single word.
	Name string
	// Doc describes the invariant the analyzer enforces and the paper
	// section it traces to.
	Doc string
	// Run reports the analyzer's findings on one package via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	file     string
	line     int
	analyzer string
	reason   string
	pos      token.Pos
	used     bool
}

const directivePrefix = "//lint:allow"

// parseDirectives collects //lint:allow comments from the files.
func parseDirectives(fset *token.FileSet, files []*ast.File) []*allowDirective {
	var out []*allowDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, directivePrefix))
				name, reason, _ := strings.Cut(rest, " ")
				posn := fset.Position(c.Pos())
				out = append(out, &allowDirective{
					file:     posn.Filename,
					line:     posn.Line,
					analyzer: name,
					reason:   strings.TrimSpace(reason),
					pos:      c.Pos(),
				})
			}
		}
	}
	return out
}

// RunAnalyzers runs every analyzer over one type-checked package and
// returns the surviving diagnostics, sorted by position. //lint:allow
// directives suppress exactly the findings of the named analyzer on the
// directive's own line or the line directly below it. Malformed
// directives (no analyzer name, or no reason) are reported as findings of
// the pseudo-analyzer "lintdirective", as are directives that suppressed
// nothing — a stale exception is itself a defect.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			diags:     &raw,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}

	directives := parseDirectives(fset, files)
	byName := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = true
	}

	var kept []Diagnostic
	for _, d := range raw {
		posn := fset.Position(d.Pos)
		suppressed := false
		for _, dir := range directives {
			if dir.analyzer != d.Analyzer || dir.file != posn.Filename {
				continue
			}
			if dir.reason == "" {
				continue // malformed; reported below, never suppresses
			}
			if dir.line == posn.Line || dir.line == posn.Line-1 {
				dir.used = true
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}

	for _, dir := range directives {
		switch {
		case dir.analyzer == "" || !byName[dir.analyzer]:
			kept = append(kept, Diagnostic{
				Pos:      dir.pos,
				Analyzer: "lintdirective",
				Message:  fmt.Sprintf("lint:allow names unknown analyzer %q", dir.analyzer),
			})
		case dir.reason == "":
			kept = append(kept, Diagnostic{
				Pos:      dir.pos,
				Analyzer: "lintdirective",
				Message:  fmt.Sprintf("lint:allow %s needs a reason", dir.analyzer),
			})
		case !dir.used:
			kept = append(kept, Diagnostic{
				Pos:      dir.pos,
				Analyzer: "lintdirective",
				Message:  fmt.Sprintf("lint:allow %s suppresses nothing (stale exception)", dir.analyzer),
			})
		}
	}

	sort.Slice(kept, func(i, j int) bool { return kept[i].Pos < kept[j].Pos })
	return kept, nil
}

// AllowedLines returns the file:line positions carrying a well-formed
// //lint:allow directive for the named analyzer. Analyzers that propagate
// information across call sites (nodeterminism's wall-clock taint) use it
// to stop propagation at sites the code has already declared benign: an
// allowed clock read is by declaration not a simulation input, so callers
// of the function containing it should not inherit the taint.
func AllowedLines(fset *token.FileSet, files []*ast.File, analyzer string) map[string]bool {
	out := map[string]bool{}
	for _, dir := range parseDirectives(fset, files) {
		if dir.analyzer == analyzer && dir.reason != "" {
			out[fmt.Sprintf("%s:%d", dir.file, dir.line)] = true
			out[fmt.Sprintf("%s:%d", dir.file, dir.line+1)] = true
		}
	}
	return out
}
