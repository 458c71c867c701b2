package faults_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"testing"

	"spam/internal/faults"
)

// TestPlansPrintAsLiterals: every shipped plan prints under %#v as the Go
// literal that rebuilds it, so a failing chaos run can report its plan in a
// form a test can paste. The printed expression must parse, set only
// exported fields, and convert nothing but nil (a pointer would print as a
// conversion of its address).
func TestPlansPrintAsLiterals(t *testing.T) {
	plans := append(faults.StandardPlans(0x5eed), faults.FailStopPlans(0x5eed)...)
	for _, p := range plans {
		src := fmt.Sprintf("%#v", p)
		expr, err := parser.ParseExpr(src)
		if err != nil {
			t.Errorf("plan %q prints as %s, which does not parse: %v", p.Name, src, err)
			continue
		}
		ast.Inspect(expr, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok && !k.IsExported() {
					t.Errorf("plan %q prints unexported field %s: %s", p.Name, k.Name, src)
				}
			case *ast.CallExpr:
				var arg *ast.Ident
				if len(n.Args) == 1 {
					arg, _ = n.Args[0].(*ast.Ident)
				}
				if arg == nil || arg.Name != "nil" {
					t.Errorf("plan %q prints a conversion of a value other than nil: %s", p.Name, src)
				}
			}
			return true
		})
	}
}
