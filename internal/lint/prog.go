package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Program is the whole-module view the interprocedural analyzers share: an
// index of every declared function and method plus a bottom-up effect
// summary for each, computed to a cycle-tolerant fixpoint before any
// analyzer runs. Summaries are keyed by a stable string ID rather than
// object identity because each package is type-checked separately — the
// *types.Func an importer materializes for flows.Demuxer.Add is not the same
// object the flows package's own check produced.
type Program struct {
	pkgs []*Package
	// byImportPath resolves a callee's defining package to its loaded
	// module-relative path ("" for functions outside the module).
	byImportPath map[string]*Package
	// funcs holds every function and method declared in the module, in a
	// deterministic order (package import path, then source position).
	funcs []*funcInfo
	// summaries maps funcID → converged summary.
	summaries map[string]*Summary
}

// funcInfo pairs one declared function with its package context.
type funcInfo struct {
	id   string
	decl *ast.FuncDecl
	pkg  *Package
}

// Summary is the bottom-up effect abstraction of one function — everything
// a caller needs to reason about a call without reading the body. All
// fields grow monotonically across fixpoint rounds.
type Summary struct {
	// WallclockVia is non-empty when the function transitively reads the
	// wall clock through non-exempt code; it holds a witness chain such as
	// "stamp → time.Now". Functions defined in sanctioned scope
	// (internal/obs, cmd/, package main) always summarize clean.
	WallclockVia string
	// GlobalrandVia is the math/rand analogue: non-empty when the function
	// transitively draws from the process-global source.
	GlobalrandVia string

	// EmitsWriter marks a function that (transitively) writes to an
	// io.Writer or fmt printer; EmitsChan one that sends on a channel.
	// Calling either inside a map iteration leaks map order into output.
	EmitsWriter bool
	EmitsChan   bool
	// AppendsVia marks parameters (receiver first, see paramObjs) through
	// which the function appends into caller-visible storage — *[]T
	// parameters and pointer receivers whose fields accumulate.
	AppendsVia map[int]bool

	// Flows[i] describes where a view (alias) of parameter i may travel.
	Flows []ParamFlow

	// ReturnsPooled marks a function whose result is a live sync.Pool.Get
	// obligation (the newTable lease pattern); PutsParam marks
	// parameters the function returns to a pool on at least one path.
	ReturnsPooled bool
	PutsParam     map[int]bool
}

// ParamFlow is the alias-escape abstraction of one parameter.
type ParamFlow struct {
	// Escapes: a view of the parameter reaches a heap location the caller
	// cannot see (package-level variable, channel, or an escaping callee).
	Escapes bool
	// ToResult: a view of the parameter may be returned.
	ToResult bool
	// ToParams: bitset of parameters into whose pointee a view may be
	// stored (packet.DecodeInto flows param 0 into param 1).
	ToParams uint64
}

func (s *Summary) flow(i int) ParamFlow {
	if s == nil || i < 0 || i >= len(s.Flows) {
		return ParamFlow{}
	}
	return s.Flows[i]
}

func (s *Summary) equal(o *Summary) bool {
	if s == nil || o == nil {
		return s == o
	}
	if s.WallclockVia != o.WallclockVia || s.GlobalrandVia != o.GlobalrandVia ||
		s.EmitsWriter != o.EmitsWriter || s.EmitsChan != o.EmitsChan ||
		s.ReturnsPooled != o.ReturnsPooled ||
		len(s.Flows) != len(o.Flows) ||
		len(s.AppendsVia) != len(o.AppendsVia) || len(s.PutsParam) != len(o.PutsParam) {
		return false
	}
	for i := range s.Flows {
		if s.Flows[i] != o.Flows[i] {
			return false
		}
	}
	for k := range s.AppendsVia {
		if !o.AppendsVia[k] {
			return false
		}
	}
	for k := range s.PutsParam {
		if !o.PutsParam[k] {
			return false
		}
	}
	return true
}

// BuildProgram indexes every function of pkgs and runs the summary fixpoint.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		byImportPath: map[string]*Package{},
		summaries:    map[string]*Summary{},
	}
	prog.pkgs = pkgs
	for _, pkg := range pkgs {
		prog.byImportPath[pkg.ImportPath] = pkg
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				prog.funcs = append(prog.funcs, &funcInfo{id: funcID(obj), decl: fd, pkg: pkg})
			}
		}
	}
	// Deterministic worklist order: Load sorts packages by import path and
	// files arrive in go-list order, so the slice is already stable; sort
	// by ID anyway so the fixpoint (and its witness strings) cannot depend
	// on enumeration details.
	sort.SliceStable(prog.funcs, func(i, j int) bool { return prog.funcs[i].id < prog.funcs[j].id })
	// Cycle-tolerant fixpoint: recompute every summary from the current
	// callee summaries until a full round changes nothing. Every summary
	// field grows monotonically and witness chains are truncated, so the
	// lattice is finite and the loop terminates; recursion (direct or
	// mutual) simply converges at the loop head.
	for round := 0; ; round++ {
		changed := false
		for _, fi := range prog.funcs {
			ns := prog.summarize(fi)
			if !ns.equal(prog.summaries[fi.id]) {
				prog.summaries[fi.id] = ns
				changed = true
			}
		}
		if !changed || round > 64 {
			break
		}
	}
	return prog
}

// SummaryOf returns the converged summary for a resolved callee, or nil for
// functions outside the module (stdlib, interface methods without bodies).
func (prog *Program) SummaryOf(fn *types.Func) *Summary {
	if prog == nil || fn == nil {
		return nil
	}
	return prog.summaries[funcID(fn)]
}

// RelPathOf returns the module-relative path of the package defining fn
// ("" when fn is not a module function).
func (prog *Program) RelPathOf(fn *types.Func) string {
	if prog == nil || fn == nil || fn.Pkg() == nil {
		return ""
	}
	if pkg := prog.byImportPath[fn.Pkg().Path()]; pkg != nil {
		return pkg.RelPath
	}
	return ""
}

// funcID builds the stable cross-package key for a function or method:
// importpath.(Recv).Name. The receiver type is spelled without package
// qualifiers — the path already scopes it.
func funcID(fn *types.Func) string {
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name := types.TypeString(t, func(*types.Package) string { return "" })
		// Drop any type-parameter brackets so generic methods key the same
		// from every instantiation site.
		if i := strings.IndexByte(name, '['); i > 0 {
			name = name[:i]
		}
		return pkgPath + ".(" + name + ")." + fn.Name()
	}
	return pkgPath + "." + fn.Name()
}

// paramObjs lists the taint-relevant parameter objects of fd: the receiver
// first (when present), then each declared parameter. The returned slice
// is index-aligned with Summary.Flows/AppendsVia/PutsParam.
func paramObjs(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if len(field.Names) == 0 {
				out = append(out, nil) // unnamed: position reserved
				continue
			}
			for _, name := range field.Names {
				out = append(out, info.Defs[name])
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
	return out
}

// callArgs aligns a call's argument expressions with the callee's
// paramObjs indexing: for method calls the receiver expression comes
// first. Variadic tail arguments all map to the last parameter index.
func callArgs(info *types.Info, call *ast.CallExpr) []ast.Expr {
	var out []ast.Expr
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			out = append(out, sel.X)
		}
	}
	return append(out, call.Args...)
}

// argIndex maps the i-th callArgs entry to a callee parameter index, given
// the callee signature (receiver counts as parameter 0 when present).
// Variadic overflow clamps to the last parameter.
func argIndex(fn *types.Func, i int) int {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return i
	}
	n := sig.Params().Len()
	if sig.Recv() != nil {
		n++
	}
	if n == 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// staticCallee resolves a call to the function or method it statically
// invokes: package-level functions, methods with concrete receivers, and
// locally-declared functions. Interface dispatch, function-typed fields,
// and builtins return nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := objOf(info, fun).(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if s := info.Selections[fun]; s != nil {
			if f, ok := s.Obj().(*types.Func); ok {
				// Interface methods have no body to summarize; returning
				// them is harmless (no summary ⇒ assumed effect-free).
				return f
			}
			return nil
		}
		if f, ok := objOf(info, fun.Sel).(*types.Func); ok {
			return f // pkg.Func
		}
	}
	return nil
}

// unparen strips redundant parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// refBearing reports whether values of t can carry an alias of another
// value's backing store: pointers, slices, maps, channels, functions, and
// interfaces do; strings and arrays copy; structs and named types inherit
// from their contents. depth bounds recursive types.
func refBearing(t types.Type) bool { return refBearingDepth(t, 0) }

func refBearingDepth(t types.Type, depth int) bool {
	if t == nil || depth > 8 {
		return true // unresolvable or too deep: assume aliasing
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return false
	case *types.Array:
		return refBearingDepth(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refBearingDepth(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	}
	return true
}

// chainWitness composes a caller-side witness: "callee → root" when the
// callee reaches the effect directly, "callee → … → root" otherwise, so
// chains stay bounded (and the fixpoint terminates) at any call depth.
func chainWitness(callee string, calleeVia string) string {
	root := calleeVia
	direct := true
	if i := strings.LastIndex(calleeVia, "→"); i >= 0 {
		root = strings.TrimSpace(calleeVia[i+len("→"):])
		direct = false
	}
	if direct {
		return fmt.Sprintf("%s → %s", callee, root)
	}
	return fmt.Sprintf("%s → … → %s", callee, root)
}

// isSyncPoolMethod reports whether call invokes name ("Get"/"Put") on a
// sync.Pool value or pointer.
func isSyncPoolMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Pool"
}
