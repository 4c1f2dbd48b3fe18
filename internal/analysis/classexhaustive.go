package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// DefaultEnumPackages lists the packages whose declared constant sets
// form the taxonomy's vocabularies: the class/name/link/site/count enums
// of internal/taxonomy, the machine families of internal/modelzoo's
// kernel table, the
// dataflow node ops, the ISA opcodes, the obs event kinds and the
// static-analysis severity levels of internal/report. Any named
// integer or string type declared in one of these packages with at least
// two constants of that type is treated as a closed enum, so new enums
// (a class 13-46 sub-type, a seventh machine family) are enforced the moment
// they are declared.
var DefaultEnumPackages = []string{
	"repro/internal/taxonomy",
	"repro/internal/modelzoo",
	"repro/internal/dataflow",
	"repro/internal/isa",
	"repro/internal/obs",
	"repro/internal/report",
}

// sentinelConst matches constants that bound an enum rather than belong
// to it (opCount-style length sentinels and blank-ish markers).
var sentinelConst = regexp.MustCompile(`(?i)(count|sentinel)$`)

// ClassExhaustive is the default-configured exhaustiveness analyzer.
var ClassExhaustive = NewClassExhaustive(DefaultEnumPackages)

// NewClassExhaustive builds the analyzer enforcing that every switch over
// a taxonomy or kernel enum either covers all of the enum's declared
// constants or carries a non-empty default clause (one that can error
// out loudly). A Skillicorn-style taxonomy lives or dies on
// exhaustiveness: a switch that silently skips a class row is exactly
// how adding IMP-XVII would drop a simulator or conformance cell without
// any test noticing.
//
// An enum is any named type with integer or string underlying declared
// in one of the given packages, together with every package-level
// constant of exactly that type (sentinels like opCount excluded).
// Switches whose cases are not all constant are skipped; an empty
// default clause does not count as coverage, because it swallows
// unknown values silently.
func NewClassExhaustive(enumPackages []string) *Analyzer {
	enumPkg := map[string]bool{}
	for _, p := range enumPackages {
		enumPkg[p] = true
	}
	a := &Analyzer{
		Name: "classexhaustive",
		Doc:  "switches over taxonomy class and kernel enums must cover every declared constant or default loudly",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok || sw.Tag == nil {
					return true
				}
				checkEnumSwitch(pass, enumPkg, sw)
				return true
			})
		}
		return nil
	}
	return a
}

// enumMembers returns the named constants of exactly type named declared
// in its package, excluding sentinels, keyed by exact constant value.
func enumMembers(named *types.Named) map[string]string {
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	members := map[string]string{}
	scope := obj.Pkg().Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		if sentinelConst.MatchString(name) || strings.HasPrefix(name, "_") {
			continue
		}
		key := c.Val().ExactString()
		if _, dup := members[key]; !dup {
			members[key] = name
		}
	}
	return members
}

// checkEnumSwitch verifies one tagged switch statement.
func checkEnumSwitch(pass *Pass, enumPkg map[string]bool, sw *ast.SwitchStmt) {
	tv, ok := pass.Info.Types[sw.Tag]
	if !ok {
		return
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || !enumPkg[named.Obj().Pkg().Path()] {
		return
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&(types.IsInteger|types.IsString) == 0 {
		return
	}
	members := enumMembers(named)
	if len(members) < 2 {
		return
	}

	covered := map[string]bool{}
	var defaultClause *ast.CaseClause
	for _, stmt := range sw.Body.List {
		cc := stmt.(*ast.CaseClause)
		if cc.List == nil {
			defaultClause = cc
			continue
		}
		for _, e := range cc.List {
			etv, ok := pass.Info.Types[e]
			if !ok || etv.Value == nil {
				return // non-constant case: cannot reason about coverage
			}
			covered[etv.Value.ExactString()] = true
		}
	}

	if defaultClause != nil && len(defaultClause.Body) > 0 {
		return // a default that can error loudly is explicit coverage
	}

	var missing []string
	for key, name := range members {
		if !covered[key] {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	typeName := named.Obj().Pkg().Name() + "." + named.Obj().Name()
	if defaultClause != nil {
		pass.Reportf(defaultClause.Pos(),
			"empty default swallows %s values %s silently: handle them or make the default error",
			typeName, strings.Join(missing, ", "))
		return
	}
	pass.Reportf(sw.Pos(),
		"switch over %s misses %s: cover every declared constant or add a default that errors",
		typeName, strings.Join(missing, ", "))
}
