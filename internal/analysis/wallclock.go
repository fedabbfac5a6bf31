package analysis

import (
	"fmt"
	"go/ast"
	"strings"
)

// wallclockExemptScope lists the package-path suffixes where sampling the
// wall clock is part of the job: the online serving layer (enqueue stamps,
// latency histograms, I/O deadlines), the run engine (retry backoff, job
// timeouts), and the fleet layer (heartbeat pacing, probe RTTs, replay
// rates). Command mains (any package under a cmd/ segment) are also exempt
// — progress lines and wall-clock reports are their interface.
var wallclockExemptScope = []string{
	"internal/serve",
	"internal/runner",
	"internal/fleet",
}

// wallclockFuncs are the real-time reads the rule bans. time.Duration
// arithmetic, constants and timers fed by explicit durations remain fine
// everywhere; only sampling the actual clock leaks real time into results.
var wallclockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// WallClockAnalyzer flags time.Now/Since/Until outside the serving layer,
// the run engine, and command mains. The determinism rule already bans
// wall-clock reads inside the simulator and training packages; this rule
// closes the rest of the library: a time.Now in, say, dataset or checkpoint
// is either dead weight or a nondeterminism seed waiting to flow into a
// result, and measurement belongs in the cmds or the exempt engines.
//
// The rule is transitive over the call graph (see confine.go): a helper
// whose own time.Now was suppressed with //evaxlint:ignore — or that hides
// it behind further wrappers — is a "silent reacher", and every call site
// that can reach it from a non-exempt package is flagged with the chain as
// witness. Calls into the exempt engines themselves are trusted and never
// propagate.
func WallClockAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "wallclock",
		Doc:  "forbid reaching time.Now/Since/Until, even through helpers, outside internal/serve, internal/runner, and cmd/",
		Run:  runWallClock,
	}
}

func wallclockExempt(pkg *Package) bool {
	for _, s := range wallclockExemptScope {
		if pkg.HasSuffix(s) {
			return true
		}
	}
	return isCommandPath(pkg.Path)
}

// wallclockUses scans one package for direct clock reads.
func wallclockUses(pkg *Package) []useSite {
	var uses []useSite
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if pkgNameOf(pkg.Info, ident) == "time" && wallclockFuncs[sel.Sel.Name] {
				uses = append(uses, useSite{
					Pos:  call.Pos(),
					What: "time." + sel.Sel.Name,
					DirectMsg: fmt.Sprintf("time.%s outside internal/serve, internal/runner and cmd/; library code must not read the wall clock — measure in a cmd or thread a timestamp in",
						sel.Sel.Name),
				})
			}
			return true
		})
	}
	return uses
}

func wallclockSpec() confineSpec {
	return confineSpec{
		rule:   "wallclock",
		exempt: wallclockExempt,
		uses:   wallclockUses,
		verb:   "reaches the wall clock",
		remedy: "library code must not read the wall clock even through helpers; measure in a cmd or thread a timestamp in",
	}
}

func runWallClock(pass *Pass) []Diagnostic {
	diags := diagsInPackage(pass, transitiveConfineDiags(pass.Prog, wallclockSpec()))
	if wallclockExempt(pass.Pkg) {
		return diags
	}
	for _, u := range wallclockUses(pass.Pkg) {
		diags = append(diags, Diagnostic{
			Pos:     pass.Position(u.Pos),
			Rule:    "wallclock",
			Message: u.DirectMsg,
		})
	}
	return diags
}

// isCommandPath reports whether the import path names a main package under a
// cmd/ tree ("evax/cmd/evaxd", "cmd/evaxd", ...).
func isCommandPath(path string) bool {
	return strings.HasPrefix(path, "cmd/") || strings.Contains(path, "/cmd/")
}
