// Package nodrop forbids discarding errors on the durability path. Every
// error-returning function of the storage device and log packages
// (internal/wal, internal/ssd, internal/pmem) sits between a write and its
// durability guarantee: wal.Append/Sync decide whether a commit survives a
// crash, ssd.Append/Sync/Truncate and pmem.WriteAt decide whether table
// images are really on media. Dropping such an error — as a bare expression
// statement, behind `go`/`defer`, or into the blank identifier — silently
// converts a failed write into data loss discovered at recovery time.
//
// Three detections run at every discard site:
//
//   - Direct: the callee is declared in one of the scoped packages and
//     returns an error. This needs no whole-program information, so it holds
//     under the go vet driver too.
//   - Integrity: the callee's name marks it as an integrity verdict —
//     Verify*/Scrub*/Salvage*/Repair*/Quarantine* returning an error. Such an
//     error is a corruption detection; discarding it converts latent rot the
//     scrub/repair machinery just found back into silent data loss. Matched
//     by name so it holds under the go vet driver and for methods on any
//     type (sstable.Table.VerifyBlocks, pmtable.Table.Verify, engine
//     repair/quarantine helpers).
//   - Transitive: the callee's interprocedural summary (see Program) shows a
//     durability effect — it generates or flushes device writes — and its
//     last result is an error. This catches wrappers like an engine flush
//     helper that reaches ssd.Sync three frames down.
//
// A fourth rule guards the read side of the same bargain. A kv.Iterator that
// stops is exhausted or has failed, and only its Err() says which; a loop
// that drains one and never asks takes a failed source for a finished one and
// hands on — or installs — a short result. So: a value whose static type has
// the draining half of kv.Iterator's method set (Valid, Next, Entry, Err — the
// seeks are not what makes a loop owe the check) and that a function advances
// (calls Next on) must, in that same function, have its Err() read, or be
// handed on — passed to a call, stored in a composite literal, returned — to
// code that then owes the check. Methods of types that themselves implement the interface are exempt:
// a wrapper forwards its input's error through its own Err. So is package
// main: a command's loop times or prints an iterator its author built over
// data its author holds, and nobody downstream mistakes its output for a
// table.
//
// Test files are exempt: tests exercise failure paths and shut down
// scaffolding where discarding a close error is routine, and the vet driver
// (unlike the source loader) hands analyzers _test.go files. Intentional
// non-test discards (there are almost none) must be annotated
// //pmblade:allow nodrop with a reason.
package nodrop

import (
	"fmt"
	"go/ast"
	"go/types"

	"pmblade/internal/analysis"
)

// Analyzer is the nodrop pass.
var Analyzer = &analysis.Analyzer{
	Name: "nodrop",
	Doc: "forbid discarding errors from wal/ssd/pmem calls and from functions " +
		"that transitively perform durability work; propagate or handle them",
	Run: run,
}

// scoped lists the package-path suffixes whose error results must not be
// dropped anywhere in the module.
var scoped = []string{
	"internal/wal",
	"internal/ssd",
	"internal/pmem",
}

// lastResultIsError reports whether fn's final result is the builtin error.
func lastResultIsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// durabilityCallee reports whether call resolves to a function declared in a
// scoped package whose last result is an error, returning the function.
func durabilityCallee(info *types.Info, call *ast.CallExpr) (*types.Func, bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil, false
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil, false
	}
	inScope := false
	for _, s := range scoped {
		if analysis.HasSuffixPath(fn.Pkg().Path(), s) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil, false
	}
	if !lastResultIsError(fn) {
		return nil, false
	}
	return fn, true
}

// integrityPrefixes are the name prefixes (compared case-insensitively on
// the first rune) that mark an error-returning function as an integrity
// verdict. The list mirrors the latent-corruption lifecycle: detection
// (Verify, Scrub), containment (Quarantine), recovery (Salvage, Repair).
var integrityPrefixes = []string{"Verify", "Scrub", "Salvage", "Repair", "Quarantine"}

// integrityCallee reports whether call resolves to an error-returning
// function whose name marks it as an integrity verdict, regardless of the
// declaring package: corruption checks live in sstable, pmtable, wal, and
// engine alike, and an unexported quarantine helper is as much a verdict as
// an exported Verify.
func integrityCallee(info *types.Info, call *ast.CallExpr) (*types.Func, bool) {
	fn := analysis.ResolveCallee(info, call)
	if fn == nil || fn.Pkg() == nil || !lastResultIsError(fn) {
		return nil, false
	}
	name := fn.Name()
	for _, p := range integrityPrefixes {
		if len(name) < len(p) {
			continue
		}
		// Match both Verify and verify: unexported helpers carry the same
		// verdict.
		if name[1:len(p)] == p[1:] && (name[0] == p[0] || name[0] == p[0]+'a'-'A') {
			return fn, true
		}
	}
	return nil, false
}

// transitiveCallee reports whether call resolves to an error-returning
// function whose summary carries a durability effect: it writes or flushes a
// device class somewhere down its call tree. Such a function's error is a
// durability verdict no matter which package declares it. Publish-only
// effects (PubDirty — retiring a predecessor file, say) are deliberately
// excluded: a failed retirement leaks space rather than losing data, and
// including them would drag the whole read path in through table unref.
func transitiveCallee(prog *analysis.Program, info *types.Info, call *ast.CallExpr) (*types.Func, bool) {
	fn := analysis.ResolveCallee(info, call)
	if fn == nil || fn.Pkg() == nil || !lastResultIsError(fn) {
		return nil, false
	}
	s := prog.Summary(fn)
	for c := analysis.Class(0); c < analysis.NumClasses; c++ {
		if s.Gen[c] || s.Flushes[c] {
			return fn, true
		}
	}
	return nil, false
}

func run(pass *analysis.Pass) error {
	prog := pass.Program()
	report := func(call *ast.CallExpr, fn *types.Func, kind, how string) {
		pass.Reportf(call.Pos(), "error from %s.%s %s; %s errors must be propagated",
			fn.Pkg().Name(), fn.Name(), how, kind)
	}
	// classify runs the driver-independent checks first (direct scope, then
	// integrity names — both need only per-file type info) and falls back to
	// the summary-based transitive check.
	classify := func(call *ast.CallExpr) (*types.Func, string, bool) {
		if fn, ok := durabilityCallee(pass.TypesInfo, call); ok {
			return fn, "durability-path", true
		}
		if fn, ok := integrityCallee(pass.TypesInfo, call); ok {
			return fn, "integrity-verdict", true
		}
		fn, ok := transitiveCallee(prog, pass.TypesInfo, call)
		return fn, "durability-path", ok
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		if pass.Pkg.Name() != "main" {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					checkDrains(pass, fd)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					if fn, kind, ok := classify(call); ok {
						report(call, fn, kind, "discarded")
					}
				}
			case *ast.DeferStmt:
				if fn, kind, ok := classify(st.Call); ok {
					report(st.Call, fn, kind, "discarded by defer")
				}
			case *ast.GoStmt:
				if fn, kind, ok := classify(st.Call); ok {
					report(st.Call, fn, kind, "discarded by go statement")
				}
			case *ast.AssignStmt:
				// a, err := f()  — flag when the error position is blank.
				if len(st.Rhs) == 1 {
					call, ok := st.Rhs[0].(*ast.CallExpr)
					if !ok {
						return true
					}
					fn, kind, ok := classify(call)
					if !ok {
						return true
					}
					errIdx := len(st.Lhs) - 1
					if errIdx >= 0 && isBlank(st.Lhs[errIdx]) {
						report(call, fn, kind, "assigned to _")
					}
					return true
				}
				// a, b = f(), g() — parallel single-value assignments.
				for i, rhs := range st.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok {
						continue
					}
					fn, kind, ok := classify(call)
					if !ok {
						continue
					}
					if i < len(st.Lhs) && isBlank(st.Lhs[i]) {
						report(call, fn, kind, "assigned to _")
					}
				}
			}
			return true
		})
	}
	return nil
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// iteratorMethods is the half of kv.Iterator's method set a drain uses, so
// that a type its constructor positions and nothing can seek (the engine's
// range-read cursor) owes the same check. The match is by shape, not by
// identity with the interface, so it holds under the go vet driver (where kv
// may be reachable only through export data) and for the fixtures.
var iteratorMethods = []string{"Valid", "Next", "Entry", "Err"}

// isIterator reports whether a value of type t can be used as a kv.Iterator.
func isIterator(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ptr := t.Underlying().(*types.Pointer); !ptr && !types.IsInterface(t) {
		t = types.NewPointer(t) // an addressable value has its pointer's methods
	}
	ms := types.NewMethodSet(t)
	for _, name := range iteratorMethods {
		if ms.Lookup(nil, name) == nil {
			return false
		}
	}
	return true
}

// valueKey names the value an expression denotes, so that the receiver of a
// Next call and the receiver of an Err call can be recognised as the same:
// the object of an identifier, then field names, with every index reduced to
// "[]". Expressions it cannot name (a call's result, say) yield "".
func valueKey(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.ObjectOf(e); obj != nil {
			return fmt.Sprintf("%s@%d", obj.Name(), obj.Pos())
		}
	case *ast.SelectorExpr:
		if k := valueKey(info, e.X); k != "" {
			return k + "." + e.Sel.Name
		}
	case *ast.IndexExpr:
		if k := valueKey(info, e.X); k != "" {
			return k + "[]"
		}
	case *ast.StarExpr:
		return valueKey(info, e.X)
	case *ast.UnaryExpr: // &it
		return valueKey(info, e.X)
	}
	return ""
}

// checkDrains applies the iterator rule to one function, closures included.
func checkDrains(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	if fd.Recv != nil && len(fd.Recv.List) == 1 && isIterator(info.TypeOf(fd.Recv.List[0].Type)) {
		return
	}
	advanced := map[string]*ast.CallExpr{} // value -> its first Next call
	settled := map[string]bool{}           // values whose Err is read, or that are handed on
	handOn := func(e ast.Expr) {
		if isIterator(info.TypeOf(e)) {
			settled[valueKey(info, e)] = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			for _, arg := range n.Args {
				handOn(arg)
			}
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || len(n.Args) != 0 || !isIterator(info.TypeOf(sel.X)) {
				return true
			}
			switch key := valueKey(info, sel.X); {
			case key == "":
			case sel.Sel.Name == "Err":
				settled[key] = true
			case sel.Sel.Name == "Next" && advanced[key] == nil:
				advanced[key] = n
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				handOn(r)
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				handOn(el)
			}
		}
		return true
	})
	for key, call := range advanced {
		if !settled[key] {
			pass.Reportf(call.Pos(), "%s is advanced but %s never reads its Err(): a source that failed ends the loop like one that ran out; check Err() once after draining, or hand the iterator on",
				types.ExprString(call.Fun.(*ast.SelectorExpr).X), fd.Name.Name)
		}
	}
}
