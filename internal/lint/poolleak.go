package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

func init() {
	Register(&Analyzer{
		Name: "poolleak",
		Doc: "checks that every sync.Pool.Get result (including leases from functions " +
			"summarized as returning pooled values, like flows' newTable) reaches a " +
			"Put, a putter function, an ownership handoff, or a return on every path, and " +
			"that neither the value nor any alias of it is used after the Put",
		Run: runPoolleak,
	})
}

func runPoolleak(p *Pass) {
	for _, f := range p.Files {
		// Every function body — declarations and literals — is checked on its
		// own: a lease must balance within the function that acquired it.
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkPoolPaths(p, fn.Body)
				}
			case *ast.FuncLit:
				checkPoolPaths(p, fn.Body)
			}
			return true
		})
	}
}

// obligation is one live pool lease: the local holding a Get result, where
// it was acquired, and the aliases derived from it (for use-after-Put).
type obligation struct {
	obj     types.Object
	pos     token.Pos
	name    string
	aliases map[types.Object]bool
}

func (o *obligation) covers(obj types.Object) bool {
	return obj != nil && (obj == o.obj || o.aliases[obj])
}

// leakState is the path-sensitive live-obligation set.
type leakState struct {
	live map[types.Object]*obligation
}

func (st *leakState) clone() *leakState {
	c := &leakState{live: make(map[types.Object]*obligation, len(st.live))}
	for k, v := range st.live {
		c.live[k] = v
	}
	return c
}

type leakWalker struct {
	pass *Pass
}

// checkPoolPaths walks one function body (nested literals are checked
// separately — a lease must balance within the function that acquired it).
func checkPoolPaths(p *Pass, body *ast.BlockStmt) {
	w := &leakWalker{pass: p}
	st := &leakState{live: map[types.Object]*obligation{}}
	if terminated := w.walkList(body.List, st); !terminated {
		for _, ob := range st.live {
			p.Reportf(ob.pos,
				"pooled buffer %q acquired here never reaches the pool again on the fall-through path; call Put (or hand ownership off) before returning",
				ob.name)
		}
	}
}

// walkList is the structural path walk over one statement list. It mutates
// st and reports leaks at each return; the result says whether the list
// terminates (every path through it returns), so branch merges can ignore
// dead fall-throughs.
func (w *leakWalker) walkList(stmts []ast.Stmt, st *leakState) bool {
	for idx, stmt := range stmts {
		rest := stmts[idx+1:]
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			w.assign(s, st)
			w.stmtCalls(s, st, rest)
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						w.valueSpec(vs, st)
					}
				}
			}
			w.stmtCalls(s, st, rest)
		case *ast.ExprStmt:
			if call, ok := unparen(s.X).(*ast.CallExpr); ok && pooledCall(w.pass, call) {
				w.pass.Reportf(call.Pos(), "pooled buffer acquired and immediately dropped; bind it and Put it back")
				continue
			}
			w.stmtCalls(s, st, rest)
		case *ast.DeferStmt:
			w.deferred(s, st)
		case *ast.SendStmt:
			w.handoffExpr(s.Value, st)
			w.stmtCalls(s, st, rest)
		case *ast.GoStmt:
			for _, arg := range s.Call.Args {
				w.handoffExpr(arg, st)
			}
		case *ast.ReturnStmt:
			w.stmtCalls(s, st, rest)
			for _, res := range s.Results {
				w.handoffExpr(res, st) // lease transfer to the caller
			}
			for _, ob := range st.live {
				w.pass.Reportf(s.Pos(),
					"return leaks pooled buffer %q (acquired at line %d): this path never calls Put",
					ob.name, w.pass.Fset.Position(ob.pos).Line)
			}
			return true
		case *ast.IfStmt:
			if s.Init != nil {
				w.walkList([]ast.Stmt{s.Init}, st)
			}
			w.stmtCalls(s.Cond, st, rest)
			thenSt := st.clone()
			tTerm := w.walkList(s.Body.List, thenSt)
			switch e := s.Else.(type) {
			case nil:
				if !tTerm {
					st.union(thenSt)
				}
			case *ast.BlockStmt:
				elseSt := st.clone()
				eTerm := w.walkList(e.List, elseSt)
				w.mergeBranches(st, thenSt, tTerm, elseSt, eTerm)
				if tTerm && eTerm {
					return true
				}
			case *ast.IfStmt:
				elseSt := st.clone()
				eTerm := w.walkList([]ast.Stmt{e}, elseSt)
				w.mergeBranches(st, thenSt, tTerm, elseSt, eTerm)
				if tTerm && eTerm {
					return true
				}
			}
		case *ast.ForStmt:
			w.loopBody(s.Body, st)
		case *ast.RangeStmt:
			w.loopBody(s.Body, st)
		case *ast.SwitchStmt:
			w.switchClauses(s.Body, st, hasDefaultClause(s.Body))
		case *ast.TypeSwitchStmt:
			w.switchClauses(s.Body, st, hasDefaultClause(s.Body))
		case *ast.SelectStmt:
			w.switchClauses(s.Body, st, false)
		case *ast.BlockStmt:
			if w.walkList(s.List, st) {
				return true
			}
		case *ast.LabeledStmt:
			if w.walkList([]ast.Stmt{s.Stmt}, st) {
				return true
			}
		default:
			w.stmtCalls(s, st, rest)
		}
	}
	return false
}

// union keeps an obligation live if it is live in either state — the
// conservative merge for a branch that may not have executed.
func (st *leakState) union(o *leakState) {
	for k, v := range o.live {
		st.live[k] = v
	}
}

// mergeBranches folds an if/else pair back into st: a terminated branch
// already reported its leaks, so only fall-through branches constrain what
// stays live.
func (w *leakWalker) mergeBranches(st, thenSt *leakState, tTerm bool, elseSt *leakState, eTerm bool) {
	switch {
	case tTerm && eTerm:
		st.live = map[types.Object]*obligation{}
	case tTerm:
		st.live = elseSt.live
	case eTerm:
		st.live = thenSt.live
	default:
		// Live after the if ⇔ live on either arm: a discharge must happen on
		// both arms to count.
		merged := map[types.Object]*obligation{}
		for k, v := range thenSt.live {
			merged[k] = v
		}
		for k, v := range elseSt.live {
			merged[k] = v
		}
		st.live = merged
	}
}

// loopBody walks a loop body on a cloned state: the loop may run zero times,
// so discharges inside grant no credit after it — but an obligation acquired
// inside the body that is still live when the body ends leaks once per
// iteration and is reported here.
func (w *leakWalker) loopBody(body *ast.BlockStmt, st *leakState) {
	bodySt := st.clone()
	if w.walkList(body.List, bodySt) {
		return
	}
	for _, ob := range bodySt.live {
		if ob.pos >= body.Pos() && ob.pos <= body.End() {
			w.pass.Reportf(ob.pos,
				"pooled buffer %q acquired inside the loop is not returned to the pool by the end of the iteration",
				ob.name)
		}
	}
}

// switchClauses walks each case body on a clone. With a default clause the
// merged state is the union of the non-terminating arms (a discharge in
// every arm counts); without one, fall-past-all-cases keeps the original
// state live too.
func (w *leakWalker) switchClauses(body *ast.BlockStmt, st *leakState, hasDefault bool) {
	before := st.clone()
	var merged *leakState
	for _, c := range body.List {
		var list []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			list = cc.Body
		case *ast.CommClause:
			list = cc.Body
		default:
			continue
		}
		armSt := before.clone()
		if w.walkList(list, armSt) {
			continue
		}
		if merged == nil {
			merged = armSt
		} else {
			merged.union(armSt)
		}
	}
	if merged == nil {
		merged = &leakState{live: map[types.Object]*obligation{}}
	}
	if !hasDefault {
		merged.union(before)
	}
	st.live = merged.live
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// assign handles obligation birth (x := pool.Get().(*T), x := lease()),
// alias creation, and heap-store handoffs.
func (w *leakWalker) assign(s *ast.AssignStmt, st *leakState) {
	info := w.pass.Info
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if len(s.Rhs) == len(s.Lhs) {
			rhs = s.Rhs[i]
		} else if len(s.Rhs) == 1 {
			rhs = s.Rhs[0]
		}
		if rhs == nil {
			continue
		}
		if pooledCall(w.pass, rhs) {
			if id, ok := unparen(lhs).(*ast.Ident); ok {
				obj := objOf(info, id)
				if obj != nil && id.Name != "_" {
					st.live[obj] = &obligation{obj: obj, pos: rhs.Pos(), name: id.Name, aliases: map[types.Object]bool{}}
				}
				continue
			}
			// Pooled value born straight into a field/container: ownership
			// lives with that structure (the newRawConn pattern); a putter
			// (flows.release) discharges it later.
			continue
		}
		w.flowInto(lhs, rhs, st)
	}
}

func (w *leakWalker) valueSpec(vs *ast.ValueSpec, st *leakState) {
	info := w.pass.Info
	for i, name := range vs.Names {
		if i >= len(vs.Values) {
			continue
		}
		if pooledCall(w.pass, vs.Values[i]) {
			obj := info.Defs[name]
			if obj != nil && name.Name != "_" {
				st.live[obj] = &obligation{obj: obj, pos: vs.Values[i].Pos(), name: name.Name, aliases: map[types.Object]bool{}}
			}
			continue
		}
		w.flowInto(name, vs.Values[i], st)
	}
}

// flowInto classifies a non-birth assignment touching an obligation: a plain
// local binding derives an alias; a store whose root is someone else's
// memory (field, element, package variable) hands ownership off.
func (w *leakWalker) flowInto(lhs, rhs ast.Expr, st *leakState) {
	info := w.pass.Info
	ob := w.mentioned(rhs, st)
	if ob == nil {
		return
	}
	if id, plain := unparen(lhs).(*ast.Ident); plain {
		obj := objOf(info, id)
		if obj == nil || id.Name == "_" {
			return
		}
		if t := info.TypeOf(id); t != nil && !refBearing(t) {
			return // scalar derived from the buffer (cap, len): no alias
		}
		ob.aliases[obj] = true
		return
	}
	root := rootIdent(unparen(lhs))
	if root != nil && ob.covers(objOf(info, root)) {
		return // *bp = (*bp)[:n] — resizing the lease is not a handoff
	}
	delete(st.live, ob.obj)
}

// handoffExpr discharges obligations mentioned in an ownership-transferring
// position (return value, channel send, goroutine argument). A scalar
// expression cannot carry the lease — len(*bp) transfers nothing — so only
// reference-bearing values count.
func (w *leakWalker) handoffExpr(e ast.Expr, st *leakState) {
	if t := w.pass.Info.TypeOf(e); t != nil && !refBearing(t) {
		return
	}
	if ob := w.mentioned(e, st); ob != nil {
		delete(st.live, ob.obj)
	}
}

// mentioned returns a live obligation whose value (or alias) appears in e.
func (w *leakWalker) mentioned(e ast.Expr, st *leakState) *obligation {
	if e == nil || len(st.live) == 0 {
		return nil
	}
	var found *obligation
	ast.Inspect(e, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := objOf(w.pass.Info, id)
		for _, ob := range st.live {
			if ob.covers(obj) {
				found = ob
				return false
			}
		}
		return true
	})
	return found
}

// stmtCalls scans every call inside stmt for discharges: direct Put, a
// callee summarized as a putter (PutsParam), or a callee that retains its
// argument (Escapes — ownership handoff). A Put also arms the use-after-Put
// check over the remaining statements of the current list.
func (w *leakWalker) stmtCalls(stmt ast.Node, st *leakState, rest []ast.Stmt) {
	info := w.pass.Info
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // a Put inside a literal runs when the literal does
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isSyncPoolMethod(info, call, "Put") && len(call.Args) == 1 {
			if ob := w.mentioned(call.Args[0], st); ob != nil {
				delete(st.live, ob.obj)
				w.useAfterPut(ob, rest)
			}
			return true
		}
		callee := staticCallee(info, call)
		sum := w.pass.Prog.SummaryOf(callee)
		if sum == nil {
			return true
		}
		args := callArgs(info, call)
		for i, arg := range args {
			ob := w.mentioned(arg, st)
			if ob == nil {
				continue
			}
			ci := argIndex(callee, i)
			if sum.PutsParam[ci] {
				delete(st.live, ob.obj)
				w.useAfterPut(ob, rest)
			} else if sum.flow(ci).Escapes {
				delete(st.live, ob.obj) // callee retains it: ownership handoff
			}
		}
		return true
	})
}

// deferred handles defer pool.Put(x) / defer release(x) / wrapping
// literals: the discharge covers every path from here on, with no
// use-after-Put hazard (defers run last).
func (w *leakWalker) deferred(s *ast.DeferStmt, st *leakState) {
	discharge := func(call *ast.CallExpr) {
		info := w.pass.Info
		if isSyncPoolMethod(info, call, "Put") && len(call.Args) == 1 {
			if ob := w.mentioned(call.Args[0], st); ob != nil {
				delete(st.live, ob.obj)
			}
			return
		}
		callee := staticCallee(info, call)
		sum := w.pass.Prog.SummaryOf(callee)
		if sum == nil {
			return
		}
		args := callArgs(info, call)
		for i, arg := range args {
			if ob := w.mentioned(arg, st); ob != nil && sum.PutsParam[argIndex(callee, i)] {
				delete(st.live, ob.obj)
			}
		}
	}
	discharge(s.Call)
	if lit, ok := unparen(s.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				discharge(call)
			}
			return true
		})
	}
}

// useAfterPut reports reads of a discharged lease (or its aliases) in the
// statements after the Put in the same list — the buffer now belongs to the
// pool and may be handed to another goroutine at any moment.
func (w *leakWalker) useAfterPut(ob *obligation, rest []ast.Stmt) {
	info := w.pass.Info
	for _, stmt := range rest {
		var hit ast.Node
		ast.Inspect(stmt, func(n ast.Node) bool {
			if hit != nil {
				return false
			}
			if id, ok := n.(*ast.Ident); ok && ob.covers(objOf(info, id)) {
				hit = n
				return false
			}
			return true
		})
		if hit != nil {
			w.pass.Reportf(hit.Pos(),
				"%q used after being returned to the pool (Put already ran): the pool may have handed the buffer to another goroutine",
				ob.name)
			return
		}
	}
}

// pooledCall reports whether e produces a live pool lease: sync.Pool.Get
// (possibly type-asserted) or a call to a function summarized ReturnsPooled.
func pooledCall(p *Pass, e ast.Expr) bool {
	switch x := unparen(e).(type) {
	case *ast.TypeAssertExpr:
		return pooledCall(p, x.X)
	case *ast.CallExpr:
		if isSyncPoolMethod(p.Info, x, "Get") {
			return true
		}
		if callee := staticCallee(p.Info, x); callee != nil {
			if sum := p.Prog.SummaryOf(callee); sum != nil && sum.ReturnsPooled {
				return true
			}
		}
	}
	return false
}
