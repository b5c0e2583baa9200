package lint

import (
	"go/ast"
)

const hqlPkg = "repro/internal/hql"

// Sessionapi keeps commands on the Session API: code under cmd/ must
// not call hql.EvalNaive or hql.EvalNaiveContext, the only env-taking
// query entry points left outside engine.Session. A command that pokes
// a store into the naive evaluator sidesteps the engine's plans, the
// session's optimizer setting and the engine's metrics, and regresses
// the cmd/ layer to the pre-server implicit-global idiom. Deliberate
// exceptions (a benchmark measuring the naive evaluator as its
// baseline) carry a //lint:allow sessionapi annotation.
var Sessionapi = &Analyzer{
	Name:  "sessionapi",
	Doc:   "cmd/ runs queries through engine.Session, not hql.EvalNaive[Context]",
	Scope: []string{"repro/cmd"},
	Run: func(pass *Pass) error {
		info := pass.Info()
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(info, call)
				if isPkgFunc(fn, hqlPkg, "EvalNaive") || isPkgFunc(fn, hqlPkg, "EvalNaiveContext") {
					pass.Reportf(call.Pos(),
						"hql.%s bypasses the Session API; open an engine.DB and call the Session method instead (see docs/SERVER.md)",
						fn.Name())
				}
				return true
			})
		}
		return nil
	},
}
