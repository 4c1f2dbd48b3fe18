package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolFunc names a package-level function by import path and name.
type PoolFunc struct {
	Pkg  string
	Name string
}

// PoolConfig describes a pooled-resource protocol: which calls acquire,
// which calls release, and which zero-argument methods release everything
// their receiver owns.
type PoolConfig struct {
	// Acquires are the pool acquisition functions (the checked calls).
	Acquires []PoolFunc
	// Releases are the package-level release functions taking the value.
	Releases []PoolFunc
	// ReleaseMethods are method names that release every pooled resource
	// owned by their receiver (the simulators' Release()).
	ReleaseMethods []string
}

// DefaultPoolConfig covers this repository's pooled hot-path resources:
// machine memory banks, register files, shared bank sets (NewBanks) and
// obs trace recorders, and the simulator constructors whose machines own
// banks and register files until their Release.
var DefaultPoolConfig = PoolConfig{
	Acquires: []PoolFunc{
		{"repro/internal/machine", "GetMemory"},
		{"repro/internal/machine", "GetRegs"},
		{"repro/internal/machine", "NewBanks"},
		{"repro/internal/obs", "AcquireTrace"},
		{"repro/internal/simd", "New"},
		{"repro/internal/mimd", "New"},
		{"repro/internal/spatial", "New"},
		{"repro/internal/dataflow", "New"},
		{"repro/internal/uniproc", "New"},
	},
	Releases: []PoolFunc{
		{"repro/internal/machine", "PutMemory"},
		{"repro/internal/machine", "PutRegs"},
		{"repro/internal/obs", "ReleaseTrace"},
	},
	ReleaseMethods: []string{"Release"},
}

// PooledRelease is the default-configured pooled-release analyzer.
var PooledRelease = NewPooledRelease(DefaultPoolConfig)

// NewPooledRelease builds the analyzer enforcing that every pool
// acquisition is matched by a release reachable on every return path.
//
// The model is per-function and source-ordered. An acquisition is owned
// by the variable it is assigned to; assigning it into a field or element
// of another local transfers ownership to that local (the simulator
// constructor pattern). At every return statement, each acquisition made
// before it must be covered by one of:
//
//   - an explicit or deferred release of the value or its owner
//     (including releases inside a deferred function literal)
//   - the value or owner appearing in the return's results
//     (ownership moves to the caller)
//   - the owner being a receiver, parameter or package-level variable
//     (it outlives the call)
//   - the value being handed to some other non-release function
//     (conservatively assumed to take ownership)
//   - the return being the acquisition's own error path
//     (`v, err := Get(...); if err != nil { return ... err }`)
//
// Two additional findings: an acquisition whose result is discarded, and
// a deferred release inside the loop that acquired it (the defer runs at
// function exit, so the pool drains for the loop's whole duration).
func NewPooledRelease(cfg PoolConfig) *Analyzer {
	a := &Analyzer{
		Name: "pooledrelease",
		Doc:  "pooled acquisitions (GetMemory/GetRegs/NewBanks/AcquireTrace and the simulator constructors) must be released on every return path",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkPooledFunc(pass, cfg, fd.Recv, fd.Type, fd.Body)
				// Function literals are separate ownership scopes: a
				// closure that acquires must release (or hand off)
				// within its own body.
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						checkPooledFunc(pass, cfg, nil, lit.Type, lit.Body)
					}
					return true
				})
			}
		}
		return nil
	}
	return a
}

// acquisition is one checked pool acquisition within a function.
type acquisition struct {
	pos   token.Pos
	desc  string
	value types.Object // variable bound to the result; nil if discarded
	err   types.Object // error result variable, if the call returns one
	owner types.Object // current owner after transfers (starts as value)
	loop  ast.Stmt     // innermost enclosing for/range, if any
	// errReturns are return statements covered by the acquisition's own
	// failure check (value was never live there).
	errReturns map[*ast.ReturnStmt]bool
	escaped    bool // handed to a non-release call or send statement
}

// releaseEvent is one release call within a function.
type releaseEvent struct {
	pos      token.Pos
	target   types.Object
	deferred bool
	loop     ast.Stmt
}

// returnEvent is one return statement and the objects its results use.
type returnEvent struct {
	stmt *ast.ReturnStmt
	pos  token.Pos
	uses map[types.Object]bool
}

func (cfg *PoolConfig) isAcquire(fn *types.Func) (string, bool) {
	for _, s := range cfg.Acquires {
		if isPkgFunc(fn, s.Pkg, s.Name) {
			return s.Name, true
		}
	}
	return "", false
}

func (cfg *PoolConfig) isRelease(fn *types.Func) bool {
	for _, s := range cfg.Releases {
		if isPkgFunc(fn, s.Pkg, s.Name) {
			return true
		}
	}
	return false
}

func (cfg *PoolConfig) isReleaseMethod(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 0 {
		return false
	}
	for _, name := range cfg.ReleaseMethods {
		if fn.Name() == name {
			return true
		}
	}
	return false
}

// checkPooledFunc runs the per-function leak analysis over one function
// scope (declaration or literal). Nested literals are pruned; they are
// checked as their own scopes by the caller.
func checkPooledFunc(pass *Pass, cfg PoolConfig, recv *ast.FieldList, ftype *ast.FuncType, body *ast.BlockStmt) {
	info := pass.Info

	var acqs []*acquisition
	var releases []*releaseEvent
	var returns []*returnEvent
	recvParams := map[types.Object]bool{}

	if recv != nil {
		for _, f := range recv.List {
			for _, n := range f.Names {
				recvParams[objectOf(info, n)] = true
			}
		}
	}
	if ftype.Params != nil {
		for _, f := range ftype.Params.List {
			for _, n := range f.Names {
				recvParams[objectOf(info, n)] = true
			}
		}
	}

	innermostLoop := func(stack []ast.Node) ast.Stmt {
		for i := len(stack) - 1; i >= 0; i-- {
			switch s := stack[i].(type) {
			case *ast.ForStmt:
				return s
			case *ast.RangeStmt:
				return s
			}
		}
		return nil
	}

	// releaseCallsIn collects release targets inside a node (used for
	// deferred function literals).
	releaseTargets := func(n ast.Node) []types.Object {
		var targets []types.Object
		ast.Inspect(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if cfg.isRelease(fn) && len(call.Args) == 1 {
				if id := rootIdent(call.Args[0]); id != nil {
					targets = append(targets, objectOf(info, id))
				}
			} else if cfg.isReleaseMethod(fn) {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					if id := rootIdent(sel.X); id != nil {
						targets = append(targets, objectOf(info, id))
					}
				}
			}
			return true
		})
		return targets
	}

	walkStack(body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate scope, checked independently
		case *ast.DeferStmt:
			loop := innermostLoop(stack)
			for _, target := range releaseTargets(n.Call) {
				releases = append(releases, &releaseEvent{pos: n.Pos(), target: target, deferred: true, loop: loop})
			}
			return false // don't double-count the calls inside

		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			if cfg.isRelease(fn) && len(n.Args) == 1 {
				if id := rootIdent(n.Args[0]); id != nil {
					releases = append(releases, &releaseEvent{pos: n.Pos(), target: objectOf(info, id)})
				}
				return true
			}
			if cfg.isReleaseMethod(fn) {
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if id := rootIdent(sel.X); id != nil {
						releases = append(releases, &releaseEvent{pos: n.Pos(), target: objectOf(info, id)})
					}
				}
				return true
			}
			if name, ok := cfg.isAcquire(fn); ok {
				acq := &acquisition{
					pos:        n.Pos(),
					desc:       fn.Pkg().Name() + "." + name,
					loop:       innermostLoop(stack),
					errReturns: map[*ast.ReturnStmt]bool{},
				}
				bindAcquisition(pass, acq, n, stack)
				if acq.value == nil && acq.owner == nil && !acq.escaped {
					pass.Reportf(n.Pos(), "result of %s is discarded: the pooled value can never be released", acq.desc)
				} else {
					acqs = append(acqs, acq)
				}
			}

		case *ast.ReturnStmt:
			uses := map[types.Object]bool{}
			for _, res := range n.Results {
				ast.Inspect(res, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if obj := objectOf(info, id); obj != nil {
							uses[obj] = true
						}
					}
					return true
				})
			}
			returns = append(returns, &returnEvent{stmt: n, pos: n.Pos(), uses: uses})
		}
		return true
	})

	if len(acqs) == 0 {
		return
	}

	// Second pass over assignments and calls: ownership transfers, own
	// error paths and escapes.
	for _, acq := range acqs {
		if acq.value == nil {
			continue
		}
		trackValueFlow(pass, body, acq)
	}

	// A function whose body falls off the end behaves like a trailing
	// bare return.
	if ftype.Results == nil {
		last := body.List
		if len(last) == 0 || !isTerminating(last[len(last)-1]) {
			returns = append(returns, &returnEvent{pos: body.Rbrace, uses: map[types.Object]bool{}})
		}
	}

	// Defer-in-loop: a defer inside the loop that acquired the value only
	// runs at function exit, so each iteration grows the pool debt.
	for _, rel := range releases {
		if !rel.deferred || rel.loop == nil {
			continue
		}
		for _, acq := range acqs {
			if acq.loop == rel.loop && (rel.target == acq.value || rel.target == acq.owner) {
				pass.Reportf(rel.pos,
					"deferred release of %s acquired in this loop runs at function exit, not per iteration: release it explicitly at the end of the loop body",
					acq.desc)
			}
		}
	}

	for _, ret := range returns {
		for _, acq := range acqs {
			if acq.pos >= ret.pos {
				continue
			}
			if pooledCovered(acq, ret, releases, recvParams) {
				continue
			}
			pass.Reportf(ret.pos,
				"return leaks %s acquired at %s: release it on this path (or defer a cleanup before the first return)",
				acq.desc, pass.Fset.Position(acq.pos))
		}
	}
}

// pooledCovered reports whether one acquisition is safe at one return.
func pooledCovered(acq *acquisition, ret *returnEvent, releases []*releaseEvent, recvParams map[types.Object]bool) bool {
	if acq.escaped {
		return true
	}
	if ret.stmt != nil && acq.errReturns[ret.stmt] {
		return true
	}
	for _, obj := range []types.Object{acq.value, acq.owner} {
		if obj == nil {
			continue
		}
		if ret.uses[obj] || recvParams[obj] {
			return true
		}
		if v, ok := obj.(*types.Var); ok && v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true // package-level owner outlives the call
		}
		for _, rel := range releases {
			if rel.target == obj && rel.pos < ret.pos {
				return true
			}
		}
	}
	return false
}

// bindAcquisition determines what variable (or composite-literal owner)
// receives the acquisition's result, from the call's ancestor stack.
func bindAcquisition(pass *Pass, acq *acquisition, call *ast.CallExpr, stack []ast.Node) {
	info := pass.Info
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.AssignStmt:
			// v, err := Get(...) or v := Get(...); the value is the
			// first LHS, the error (if two results) the second.
			if len(parent.Rhs) == 1 && containsNode(parent.Rhs[0], call) {
				if id, ok := parent.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
					// Direct binding only when the call IS the RHS; a
					// call nested deeper (inside a composite literal on
					// the RHS) binds to the literal's owner instead.
					if ast.Unparen(parent.Rhs[0]) == call {
						acq.value = objectOf(info, id)
						acq.owner = acq.value
						if len(parent.Lhs) == 2 {
							if eid, ok := parent.Lhs[1].(*ast.Ident); ok && eid.Name != "_" {
								acq.err = objectOf(info, eid)
							}
						}
						return
					}
					// Nested in the RHS expression: the assigned
					// variable owns the resource.
					acq.owner = objectOf(info, id)
					return
				}
			}
			return
		case *ast.ReturnStmt:
			acq.escaped = true // result goes straight to the caller
			return
		case *ast.CallExpr:
			if parent != call {
				acq.escaped = true // argument to another function
				return
			}
		case *ast.KeyValueExpr, *ast.CompositeLit, *ast.UnaryExpr, *ast.ParenExpr, *ast.IndexExpr:
			// keep climbing to the assignment or return
		case ast.Stmt:
			return // ExprStmt etc: result discarded
		}
	}
}

// trackValueFlow scans the function for statements that move the acquired
// value: ownership transfers into another local's field/element, the own
// error-path return, and escapes into other calls or sends.
func trackValueFlow(pass *Pass, body *ast.BlockStmt, acq *acquisition) {
	info := pass.Info
	walkStack(body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if id, ok := ast.Unparen(rhs).(*ast.Ident); ok && objectOf(info, id) == acq.value && i < len(n.Lhs) {
					lhs := n.Lhs[i]
					if root := rootIdent(lhs); root != nil {
						if obj := objectOf(info, root); obj != nil && obj != acq.value {
							acq.owner = obj
						}
					}
				}
			}
		case *ast.SendStmt:
			if usesObject(info, n.Value, acq.value) {
				acq.escaped = true
			}
		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			if fn != nil && acq.pos >= n.Pos() && acq.pos < n.End() {
				return true // the acquisition call itself
			}
			for _, arg := range n.Args {
				if usesObject(info, arg, acq.value) {
					// Passing the value to any function other than a
					// release transfers ownership conservatively.
					if !isReleaseLike(fn) {
						acq.escaped = true
					}
				}
			}
		case *ast.IfStmt:
			// The idiomatic own-failure check: the if immediately tests
			// the acquisition's error and returns.
			if acq.err != nil && usesObject(info, n.Cond, acq.err) && n.Pos() > acq.pos {
				ast.Inspect(n.Body, func(m ast.Node) bool {
					if ret, ok := m.(*ast.ReturnStmt); ok {
						acq.errReturns[ret] = true
					}
					return true
				})
			}
		}
		return true
	})
}

// isReleaseLike reports whether fn looks like a release/recycle function,
// so passing a pooled value to it does not count as an ownership escape.
func isReleaseLike(fn *types.Func) bool {
	if fn == nil {
		return false // indirect call: assume it takes ownership
	}
	switch fn.Name() {
	case "PutMemory", "PutRegs", "ReleaseTrace", "Release", "Put":
		return true
	}
	return false
}

// usesObject reports whether expr references obj.
func usesObject(info *types.Info, expr ast.Node, obj types.Object) bool {
	if expr == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objectOf(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// containsNode reports whether outer's subtree contains inner.
func containsNode(outer, inner ast.Node) bool {
	return outer.Pos() <= inner.Pos() && inner.End() <= outer.End()
}

// isTerminating reports whether a statement always transfers control
// (best effort: returns and panics).
func isTerminating(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
