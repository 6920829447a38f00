// Package all registers the full tmflint analyzer suite, shared by the
// cmd/tmflint vettool and the driver tests.
package all

import (
	"encompass/internal/analysis/droppederr"
	"encompass/internal/analysis/forcefirst"
	"encompass/internal/analysis/guardedby"
	"encompass/internal/analysis/lint"
	"encompass/internal/analysis/lockorder"
	"encompass/internal/analysis/mailboxblock"
	"encompass/internal/analysis/nodeterminism"
	"encompass/internal/analysis/spawnlifecycle"
	"encompass/internal/analysis/statetrans"
)

// Analyzers is the tmflint suite, in reporting order.
var Analyzers = []*lint.Analyzer{
	lockorder.Analyzer,
	guardedby.Analyzer,
	forcefirst.Analyzer,
	statetrans.Analyzer,
	spawnlifecycle.Analyzer,
	nodeterminism.Analyzer,
	mailboxblock.Analyzer,
	droppederr.Analyzer,
}
