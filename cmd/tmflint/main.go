// Command tmflint is the project's static-analysis vettool: eight
// analyzers that turn TMF's concurrency, checkpoint, write-ahead-ordering,
// goroutine-lifecycle, and determinism disciplines into compile-time
// invariants. Run it through the standard vet driver, which supplies type
// information from the build cache:
//
//	go build -o bin/tmflint ./cmd/tmflint
//	go vet -vettool=bin/tmflint ./...
//
// (or simply `make lint`). Deliberate exceptions are written as
// `//lint:allow <analyzer> <reason>` on or directly above the flagged
// line; see DESIGN.md §11 and §16 for each analyzer's invariant and the
// paper section it traces to.
package main

import (
	"encompass/internal/analysis/all"
	"encompass/internal/analysis/unitchecker"
)

func main() {
	unitchecker.Main(all.Analyzers...)
}
