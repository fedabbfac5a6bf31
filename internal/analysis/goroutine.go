package analysis

import (
	"go/ast"
)

// goroutineExemptScope lists the package-path suffixes allowed to use raw
// concurrency primitives. internal/runner is the deterministic fan-out
// engine every campaign must flow through: it alone owns goroutines and
// WaitGroups, so index-addressed merging and per-job seed derivation cannot
// be bypassed by ad-hoc parallel loops. internal/serve is the online
// service: connection readers/writers and shard batchers are long-lived
// event loops, not fan-out jobs — scheduling there never reaches a score
// (verdicts depend only on their row), so raw concurrency is part of its
// contract rather than a determinism leak. internal/fleet extends the same
// argument one level up: coordinator heartbeats and tenant streams are
// serve-style event loops, and the merged replay digest is folded in corpus
// order, so fleet scheduling cannot perturb a verdict either.
var goroutineExemptScope = []string{
	"internal/runner",
	"internal/serve",
	"internal/fleet",
}

// GoroutineAnalyzer flags raw go statements and sync.WaitGroup references
// outside internal/runner. Ad-hoc goroutines reintroduce exactly the
// nondeterminism PR 2 removed: completion-order-dependent merges and shared
// RNG state across workers. The approved idiom is runner.Map/FlatMap/MapErr
// with a per-job seed from runner.DeriveSeed.
//
// The rule is transitive over the call graph (see confine.go): a helper
// that wraps a go statement behind an //evaxlint:ignore cannot be called
// from banned packages without every such call site being flagged. Calling
// into internal/runner or internal/serve themselves is the approved idiom
// and never propagates.
func GoroutineAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "goroutine",
		Doc:  "forbid raw go statements and sync.WaitGroup, even through helpers, outside internal/runner",
		Run:  runGoroutine,
	}
}

func goroutineExempt(pkg *Package) bool {
	for _, s := range goroutineExemptScope {
		if pkg.HasSuffix(s) {
			return true
		}
	}
	return false
}

// goroutineUses scans one package for raw concurrency primitives.
func goroutineUses(pkg *Package) []useSite {
	var uses []useSite
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.GoStmt:
				uses = append(uses, useSite{
					Pos:  node.Pos(),
					What: "go statement",
					DirectMsg: "raw go statement outside internal/runner; fan work out with " +
						"runner.Map/FlatMap (index-addressed, deterministic merge) instead",
				})
			case *ast.SelectorExpr:
				// A sync.WaitGroup type reference: declarations, fields,
				// parameters. Method calls on a WaitGroup require one of
				// these, so flagging the reference covers every use.
				if ident, ok := node.X.(*ast.Ident); ok &&
					pkgNameOf(pkg.Info, ident) == "sync" && node.Sel.Name == "WaitGroup" {
					uses = append(uses, useSite{
						Pos:  node.Pos(),
						What: "sync.WaitGroup",
						DirectMsg: "sync.WaitGroup outside internal/runner; the runner engine owns " +
							"worker lifecycle — submit jobs through runner.Map instead",
					})
				}
			}
			return true
		})
	}
	return uses
}

func goroutineSpec() confineSpec {
	return confineSpec{
		rule:   "goroutine",
		exempt: goroutineExempt,
		uses:   goroutineUses,
		verb:   "launches raw concurrency",
		remedy: "fan out through runner.Map instead of helpers that wrap go statements",
	}
}

func runGoroutine(pass *Pass) []Diagnostic {
	diags := diagsInPackage(pass, transitiveConfineDiags(pass.Prog, goroutineSpec()))
	if goroutineExempt(pass.Pkg) {
		return diags
	}
	for _, u := range goroutineUses(pass.Pkg) {
		diags = append(diags, Diagnostic{
			Pos:     pass.Position(u.Pos),
			Rule:    "goroutine",
			Message: u.DirectMsg,
		})
	}
	return diags
}
