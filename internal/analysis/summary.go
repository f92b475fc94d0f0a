package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the summary half of the interprocedural framework. A Program
// aggregates per-function FuncSummary facts for every package reachable
// through one loader; summaries are computed bottom-up over the SCC
// condensation of each package's call graph (callgraph.go) and on demand
// across package boundaries (Go's import graph is acyclic, so cross-package
// recursion terminates; within a package, mutual recursion converges by a
// bounded fixpoint inside its SCC).
//
// Three replay engines share the traversal conventions the analyzers
// established in PR 2 (linear source-order walk, defers at function exit,
// goroutines skipped, invoked function literals inlined):
//
//   - persist ordering: which device classes (pm, ssd) have unflushed writes,
//     and whether a publish event (manifest root install, Release of a
//     predecessor region, file delete, or a //pmblade:publish statement) is
//     reached while dirty;
//   - alias taint: which values derive from pmem.View / block-cache memory
//     (zero-copy views that must not be written through or escape uncopied);
//   - fault coverage: whether a device method mutates durable state before
//     consulting the fault.Injector hook.
//
// The device layer itself (internal/pmem, internal/ssd) is modeled by
// intrinsic summaries keyed by package-path suffix and receiver/method name,
// so fixtures can stand in for the real packages and export-data-only loads
// (the go vet driver) still see the device semantics.

// Class is a durability domain: writes and flushes of one class are ordered
// independently of the other.
type Class int

// The two device classes of the storage engine.
const (
	ClassPM  Class = iota // pmem arena writes, covered by pmem.Flush
	ClassSSD              // ssd file appends, covered by ssd.Sync
	NumClasses
)

// ClassName returns the short name used in directives and diagnostics.
func ClassName(c Class) string {
	if c == ClassPM {
		return "pm"
	}
	return "ssd"
}

// ParseClass parses a directive class token.
func ParseClass(s string) (Class, bool) {
	switch s {
	case "pm":
		return ClassPM, true
	case "ssd":
		return ClassSSD, true
	}
	return 0, false
}

// FlushVerb names the operation that cleans a class, for diagnostics.
func FlushVerb(c Class) string {
	if c == ClassPM {
		return "pmem.Flush"
	}
	return "ssd.Sync"
}

// FuncSummary is the interprocedural abstract of one function: how it
// transforms the caller's persistence state, whether it leaks zero-copy
// views, how it behaves with respect to fault hooks, and the lock/compaction
// facts the lockorder analyzer propagates.
type FuncSummary struct {
	// Gen[c]: entered with class c clean, the function exits with unflushed
	// c writes on the linear path.
	Gen [NumClasses]bool
	// Keep[c]: entered with class c dirty, the dirt survives to exit (no
	// covering flush on the linear path).
	Keep [NumClasses]bool
	// PubDirty[c]: entered with class c dirty, a publish event is reached
	// before any covering flush — the caller's unflushed writes escape.
	// Publishes that fire even on a clean entry are reported inside the
	// defining package and not re-reported at call sites.
	PubDirty [NumClasses]bool
	// Flushes[c]: a flush/sync of class c occurs somewhere in the function.
	Flushes [NumClasses]bool
	// ReleasesArg: the first argument names the region/file being published
	// (pmem.Release, ssd.Delete); callers may exempt self-allocated values.
	ReleasesArg bool
	// Allocates: the first result is a freshly allocated region/file id
	// (pmem.Alloc, ssd.Create); releasing it in the same function discards
	// unpublished state rather than publishing.
	Allocates bool
	// ReturnsAlias: some result may alias pmem arena or block-cache memory.
	ReturnsAlias bool
	// Mutates: the function mutates durable state reachable from its
	// receiver. MutStart: some such mutation precedes any fault hook on the
	// linear path (entering unhooked). Hooks: the function consults the
	// fault injector at some point.
	Mutates  bool
	MutStart bool
	Hooks    bool
	// LocksMajor / Compacts are lockorder's transitive facts: may acquire
	// the engine's majorMu; may perform compaction/flush I/O
	// (//pmblade:compacts), directly or through any callee.
	LocksMajor bool
	Compacts   bool
}

func identitySummary() *FuncSummary {
	s := &FuncSummary{}
	for c := Class(0); c < NumClasses; c++ {
		s.Keep[c] = true
	}
	return s
}

// PublishDirective marks a statement as a publish point for the listed
// classes ("//pmblade:publish ssd" above the WAL commit ack, for example):
// reaching it with unflushed writes of a listed class is a persist-ordering
// violation. The directive covers its own line and the line below it.
const PublishDirective = "pmblade:publish"

// pubDirective is one parsed //pmblade:publish comment.
type pubDirective struct {
	file    string
	line    int // statements on line or line+1 are publish points
	classes []Class
}

// Program aggregates interprocedural summaries for the packages reachable
// through one load function. Loader-produced packages share their loader's
// Program; packages built from export data (the go vet driver) get a
// single-package Program whose cross-package knowledge is limited to the
// intrinsic device summaries — sound but less complete.
type Program struct {
	load   func(path string) (*Package, error)
	fns    map[*types.Func]*FuncSummary
	done   map[string]bool
	pubDir map[string][]*pubDirective // filename -> publish directives
}

// NewProgram creates a Program resolving packages through load.
func NewProgram(load func(path string) (*Package, error)) *Program {
	return &Program{
		load:   load,
		fns:    map[*types.Func]*FuncSummary{},
		done:   map[string]bool{},
		pubDir: map[string][]*pubDirective{},
	}
}

// Ensure computes summaries for every function declared in pkg (and,
// transitively, for any package the bodies statically call into).
func (prog *Program) Ensure(pkg *Package) {
	prog.summarizePackage(pkg)
}

// Summary returns the summary for fn, computing its declaring package's
// summaries on demand. Functions whose source is unavailable (stdlib,
// export-data-only dependencies, interface methods) get an intrinsic-or-
// identity summary. Returns nil only for nil/packageless functions.
func (prog *Program) Summary(fn *types.Func) *FuncSummary {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	if s, ok := prog.fns[fn]; ok {
		return s
	}
	path := fn.Pkg().Path()
	if !prog.done[path] && prog.load != nil {
		if pkg, err := prog.load(path); err == nil {
			prog.summarizePackage(pkg)
			if s, ok := prog.fns[fn]; ok {
				return s
			}
		}
		prog.done[path] = true
	}
	s := identitySummary()
	applyIntrinsics(fn, s)
	prog.fns[fn] = s
	return s
}

// summarizePackage computes summaries for all of pkg's declared functions,
// bottom-up over the SCC condensation with a bounded fixpoint per component.
func (prog *Program) summarizePackage(pkg *Package) {
	if prog.done[pkg.Path] {
		return
	}
	// Mark done first: lookups from inside the fixpoint must read the
	// in-progress table instead of recursing back here.
	prog.done[pkg.Path] = true
	prog.scanPublishDirectives(pkg)

	decls := FuncDecls(pkg)
	for fn := range decls {
		if _, ok := prog.fns[fn]; !ok {
			prog.fns[fn] = identitySummary()
		}
	}
	seedLock := map[*types.Func]bool{}
	seedCompacts := map[*types.Func]bool{}
	for fn, fd := range decls {
		if len(CommentDirectives(CompactsDirective, fd.Doc)) > 0 {
			seedCompacts[fn] = true
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isMajorLock(call) {
				seedLock[fn] = true
			}
			return true
		})
	}
	edges := CallEdges(pkg, decls)
	for _, comp := range SCCs(decls, edges) {
		// The summary lattice is a handful of booleans per function, so each
		// component converges in a few rounds; the cap bounds pathological
		// oscillation (mutual recursion must converge, never hang).
		for iter := 0; iter < 8*len(comp)+4; iter++ {
			changed := false
			for _, fn := range comp {
				ns := prog.computeSummary(pkg, fn, decls[fn], seedLock[fn], seedCompacts[fn], edges[fn])
				if *ns != *prog.fns[fn] {
					*prog.fns[fn] = *ns
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
}

// computeSummary evaluates one function's summary from its body and the
// current summaries of its callees.
func (prog *Program) computeSummary(pkg *Package, fn *types.Func, fd *ast.FuncDecl, seedLock, seedCompacts bool, callees []*types.Func) *FuncSummary {
	s := identitySummary()
	var clean, dirty [NumClasses]bool
	for c := Class(0); c < NumClasses; c++ {
		dirty[c] = true
	}
	exit0, pub0, fl0 := prog.replayPersist(pkg, fd, clean, nil)
	exit1, pub1, fl1 := prog.replayPersist(pkg, fd, dirty, nil)
	for c := Class(0); c < NumClasses; c++ {
		s.Gen[c] = exit0[c]
		s.Keep[c] = exit1[c]
		s.PubDirty[c] = pub1[c] && !pub0[c]
		s.Flushes[c] = fl0[c] || fl1[c]
	}
	s.ReturnsAlias = prog.ReplayAlias(pkg, fd, nil)
	s.Mutates, s.MutStart, s.Hooks = prog.FaultFacts(pkg, fd, nil)
	s.LocksMajor = seedLock
	s.Compacts = seedCompacts
	for _, t := range callees {
		if ts := prog.Summary(t); ts != nil {
			s.LocksMajor = s.LocksMajor || ts.LocksMajor
			s.Compacts = s.Compacts || ts.Compacts
		}
	}
	applyIntrinsics(fn, s)
	return s
}

// recvTypeName returns the name of fn's receiver's named type, or "".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// applyIntrinsics overlays the device-layer semantics onto s. Matching is by
// package-path suffix plus receiver/method name so analysistest fixtures can
// stand in for the real packages, and so the facts survive export-data-only
// loads where the device bodies are unavailable.
func applyIntrinsics(fn *types.Func, s *FuncSummary) {
	pkg := fn.Pkg()
	if pkg == nil {
		return
	}
	path := pkg.Path()
	recv := recvTypeName(fn)
	switch {
	case HasSuffixPath(path, "internal/pmem") && recv == "Device":
		switch fn.Name() {
		case "WriteAt":
			s.Gen[ClassPM] = true
		case "Flush":
			s.Gen[ClassPM] = false
			s.Keep[ClassPM] = false
			s.Flushes[ClassPM] = true
		case "Release":
			s.PubDirty[ClassPM] = true
			s.ReleasesArg = true
		case "Alloc":
			s.Allocates = true
		case "View":
			s.ReturnsAlias = true
		}
	case HasSuffixPath(path, "internal/ssd") && recv == "Device":
		switch fn.Name() {
		case "Append":
			s.Gen[ClassSSD] = true
		case "Sync":
			s.Gen[ClassSSD] = false
			s.Keep[ClassSSD] = false
			s.Flushes[ClassSSD] = true
		case "SetRoot":
			// The manifest rename publishes both classes: the installed
			// manifest references pmtables and sstables alike.
			s.PubDirty[ClassPM] = true
			s.PubDirty[ClassSSD] = true
		case "Delete":
			s.PubDirty[ClassSSD] = true
			s.ReleasesArg = true
		case "Create":
			s.Allocates = true
		}
	case HasSuffixPath(path, "internal/sstable") && recv == "BlockCache" && fn.Name() == "get":
		s.ReturnsAlias = true
	case HasSuffixPath(path, "internal/fault") && recv == "Injector" && (fn.Name() == "Hook" || fn.Name() == "HookRead"):
		s.Hooks = true
	}
}

// isMajorLock matches base.majorMu.Lock().
func isMajorLock(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Lock" {
		return false
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return inner.Sel.Name == "majorMu"
}

// scanPublishDirectives records every //pmblade:publish comment of pkg.
func (prog *Program) scanPublishDirectives(pkg *Package) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, PublishDirective) {
					continue
				}
				rest := strings.Fields(strings.TrimSpace(text[len(PublishDirective):]))
				d := &pubDirective{}
				for _, tok := range rest {
					if cls, ok := ParseClass(tok); ok {
						d.classes = append(d.classes, cls)
					}
				}
				if len(d.classes) == 0 {
					continue // malformed; persistorder reports these separately
				}
				pos := pkg.Fset.Position(c.Pos())
				d.file, d.line = pos.Filename, pos.Line
				prog.pubDir[d.file] = append(prog.pubDir[d.file], d)
			}
		}
	}
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// directChildren returns n's direct AST children in source order.
func directChildren(n ast.Node) []ast.Node {
	var out []ast.Node
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil || c == n {
			return true
		}
		out = append(out, c)
		return false
	})
	return out
}

// ReportFunc receives a fully formed diagnostic from a replay engine.
type ReportFunc func(pos token.Pos, format string, args ...any)

// ---------------------------------------------------------------------------
// Persist-ordering replay.

type persistReplay struct {
	prog      *Program
	pkg       *Package
	report    ReportFunc
	dirty     [NumClasses]bool
	pub       [NumClasses]bool
	flushed   [NumClasses]bool
	selfAlloc map[types.Object]bool
	funcLits  map[types.Object]*ast.FuncLit
	usedPub   map[*pubDirective]bool
	depth     int
}

// ReplayPersist walks fd's body in source order with the given entry state,
// reporting (when report is non-nil) every publish event reached while a
// class is dirty. It returns the exit dirt, the publish-while-dirty flags,
// and the flush-seen flags.
func (prog *Program) ReplayPersist(pkg *Package, fd *ast.FuncDecl, entry [NumClasses]bool, report ReportFunc) (exit, pub, flushed [NumClasses]bool) {
	return prog.replayPersist(pkg, fd, entry, report)
}

func (prog *Program) replayPersist(pkg *Package, fd *ast.FuncDecl, entry [NumClasses]bool, report ReportFunc) (exit, pub, flushed [NumClasses]bool) {
	r := &persistReplay{
		prog:      prog,
		pkg:       pkg,
		report:    report,
		dirty:     entry,
		selfAlloc: map[types.Object]bool{},
		funcLits:  map[types.Object]*ast.FuncLit{},
		usedPub:   map[*pubDirective]bool{},
	}
	r.walkBody(fd.Body)
	return r.dirty, r.pub, r.flushed
}

func (r *persistReplay) walkBody(body *ast.BlockStmt) {
	var deferred []*ast.CallExpr
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch n := n.(type) {
		case *ast.FuncLit:
			return // replayed only when invoked
		case *ast.GoStmt:
			return // concurrent: no linear ordering with the caller
		case *ast.DeferStmt:
			deferred = append(deferred, n.Call)
			return
		case *ast.CallExpr:
			walk(n.Fun)
			for _, a := range n.Args {
				if _, isLit := a.(*ast.FuncLit); !isLit {
					walk(a)
				}
			}
			r.call(n)
			return
		case *ast.AssignStmt:
			r.stmtDirective(n)
			for _, rhs := range n.Rhs {
				if _, isLit := rhs.(*ast.FuncLit); !isLit {
					walk(rhs)
				}
			}
			for _, lhs := range n.Lhs {
				walk(lhs)
			}
			r.bind(n)
			return
		}
		if st, ok := n.(ast.Stmt); ok {
			r.stmtDirective(st)
		}
		for _, c := range directChildren(n) {
			walk(c)
		}
	}
	walk(body)
	for i := len(deferred) - 1; i >= 0; i-- {
		r.call(deferred[i])
	}
}

// stmtDirective fires any //pmblade:publish directive covering st's line.
func (r *persistReplay) stmtDirective(st ast.Stmt) {
	pos := r.pkg.Fset.Position(st.Pos())
	for _, d := range r.prog.pubDir[pos.Filename] {
		if r.usedPub[d] || (pos.Line != d.line && pos.Line != d.line+1) {
			continue
		}
		r.usedPub[d] = true
		for _, c := range d.classes {
			if r.dirty[c] {
				r.pub[c] = true
				if r.report != nil {
					r.report(st.Pos(),
						"publish point (//pmblade:publish %s) reached with unflushed %s writes; %s must cover them before this statement",
						ClassName(c), ClassName(c), FlushVerb(c))
				}
			}
		}
	}
}

// bind records function-literal bindings and fresh-allocation results.
func (r *persistReplay) bind(n *ast.AssignStmt) {
	for i, rhs := range n.Rhs {
		if lit, ok := rhs.(*ast.FuncLit); ok && i < len(n.Lhs) {
			if id, ok := n.Lhs[i].(*ast.Ident); ok {
				if obj := objOf(r.pkg.Info, id); obj != nil {
					r.funcLits[obj] = lit
				}
			}
		}
	}
	if len(n.Rhs) != 1 || len(n.Lhs) == 0 {
		return
	}
	call, ok := n.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	fn := ResolveCallee(r.pkg.Info, call)
	if fn == nil {
		return
	}
	if s := r.prog.Summary(fn); s != nil && s.Allocates {
		if id, ok := n.Lhs[0].(*ast.Ident); ok {
			if obj := objOf(r.pkg.Info, id); obj != nil {
				r.selfAlloc[obj] = true
			}
		}
	}
}

func (r *persistReplay) call(call *ast.CallExpr) {
	// Invoked function literals run with the caller's persistence state in
	// force: immediate invocations, locally bound closures, and closures
	// handed to helpers (retryDurable, the scheduler's Fan).
	if r.depth < 8 {
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.FuncLit:
			r.depth++
			r.walkBody(fun.Body)
			r.depth--
			return
		case *ast.Ident:
			if obj := r.pkg.Info.Uses[fun]; obj != nil {
				if lit, bound := r.funcLits[obj]; bound {
					delete(r.funcLits, obj) // self-recursion guard
					r.depth++
					r.walkBody(lit.Body)
					r.depth--
					r.funcLits[obj] = lit
					return
				}
			}
		}
		for _, a := range call.Args {
			if lit, ok := a.(*ast.FuncLit); ok {
				r.depth++
				r.walkBody(lit.Body)
				r.depth--
			}
		}
	}
	fn := ResolveCallee(r.pkg.Info, call)
	if fn == nil {
		return
	}
	s := r.prog.Summary(fn)
	if s == nil {
		return
	}
	// Releasing a region/file allocated in this same function discards
	// unpublished state; it is not a publish of a predecessor.
	selfRelease := false
	if s.ReleasesArg && len(call.Args) > 0 {
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := objOf(r.pkg.Info, id); obj != nil && r.selfAlloc[obj] {
				selfRelease = true
			}
		}
	}
	for c := Class(0); c < NumClasses; c++ {
		if s.PubDirty[c] && !selfRelease && r.dirty[c] {
			r.pub[c] = true
			if r.report != nil {
				r.report(call.Pos(),
					"call to %s publishes device state with unflushed %s writes on the path; %s must cover them before the publish",
					funcDisplay(fn), ClassName(c), FlushVerb(c))
			}
		}
		if s.Flushes[c] {
			r.flushed[c] = true
		}
		r.dirty[c] = (r.dirty[c] && s.Keep[c]) || s.Gen[c]
	}
}

func funcDisplay(fn *types.Func) string {
	if recv := recvTypeName(fn); recv != "" {
		return fmt.Sprintf("%s.(*%s).%s", fn.Pkg().Name(), recv, fn.Name())
	}
	return fmt.Sprintf("%s.%s", fn.Pkg().Name(), fn.Name())
}

// ---------------------------------------------------------------------------
// Alias-taint replay.

// AliasKind distinguishes the two alias-escape violations.
type AliasKind int

const (
	// AliasWrite is a store through a zero-copy view (index assignment or
	// copy destination).
	AliasWrite AliasKind = iota
	// AliasReturn is a view-aliasing value crossing a return.
	AliasReturn
)

// AliasReportFunc receives alias violations from ReplayAlias.
type AliasReportFunc func(pos token.Pos, kind AliasKind)

type aliasReplay struct {
	prog    *Program
	pkg     *Package
	report  AliasReportFunc
	tainted map[types.Object]bool
	escapes bool
}

// ReplayAlias walks fd's body tracking which locals alias pmem.View /
// block-cache memory, reporting stores through tainted values and (for the
// summary) whether a tainted value reaches one of fd's returns. report may
// be nil (summary computation).
func (prog *Program) ReplayAlias(pkg *Package, fd *ast.FuncDecl, report AliasReportFunc) bool {
	r := &aliasReplay{prog: prog, pkg: pkg, report: report, tainted: map[types.Object]bool{}}
	r.walk(fd.Body, false)
	return r.escapes
}

func (r *aliasReplay) walk(n ast.Node, inLit bool) {
	switch n := n.(type) {
	case *ast.FuncLit:
		// Closures share the taint environment but their returns are not the
		// outer function's returns.
		r.walk(n.Body, true)
		return
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			r.walk(rhs, inLit)
		}
		r.assign(n)
		return
	case *ast.RangeStmt:
		if r.exprTainted(n.X) {
			r.taintIdent(n.Key)
			r.taintIdent(n.Value)
		}
		r.walk(n.Body, inLit)
		return
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			r.walk(res, inLit)
			if !inLit && r.exprTainted(res) && carriesAlias(r.pkg.Info.TypeOf(res)) {
				r.escapes = true
				if r.report != nil {
					r.report(res.Pos(), AliasReturn)
				}
			}
		}
		return
	case *ast.CallExpr:
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
			if b, ok := objOf(r.pkg.Info, id).(*types.Builtin); ok && b.Name() == "copy" &&
				len(n.Args) == 2 && r.exprTainted(n.Args[0]) {
				if r.report != nil {
					r.report(n.Args[0].Pos(), AliasWrite)
				}
			}
		}
	}
	for _, c := range directChildren(n) {
		r.walk(c, inLit)
	}
}

// assign handles taint propagation and write-through detection for one
// assignment statement.
func (r *aliasReplay) assign(n *ast.AssignStmt) {
	// Write-through: storing into an element of a tainted slice. Map and
	// array-value stores mutate the container, not the viewed memory, so
	// only slice-typed bases count.
	for _, lhs := range n.Lhs {
		if l, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if _, isSlice := r.pkg.Info.TypeOf(l.X).Underlying().(*types.Slice); isSlice {
				if r.exprTainted(l.X) && r.report != nil {
					r.report(l.Pos(), AliasWrite)
				}
			}
		}
	}
	// Propagation. Multi-value: x, err := f() taints every bound name when
	// f's result aliases.
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		if r.exprTainted(n.Rhs[0]) {
			for _, lhs := range n.Lhs {
				r.taintIdent(lhs)
			}
		} else {
			for _, lhs := range n.Lhs {
				r.untaintIdent(lhs)
			}
		}
		return
	}
	for i, lhs := range n.Lhs {
		if i >= len(n.Rhs) {
			break
		}
		t := r.exprTainted(n.Rhs[i])
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if t {
				r.taintIdent(l)
			} else if n.Tok == token.DEFINE || n.Tok == token.ASSIGN {
				r.untaintIdent(l)
			}
		case *ast.SelectorExpr:
			// e.Key = view[...]: the struct now carries the alias.
			if t {
				r.taintIdent(rootIdent(l))
			}
		case *ast.IndexExpr:
			if t {
				r.taintIdent(rootIdent(l))
			}
		}
	}
}

func (r *aliasReplay) taintIdent(e ast.Expr) {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok && id != nil && id.Name != "_" {
		if obj := objOf(r.pkg.Info, id); obj != nil && carriesAlias(obj.Type()) {
			r.tainted[obj] = true
		}
	}
}

// carriesAlias reports whether a value of type t can hold a reference into
// view memory. Basic values (a byte read out of a view) and interfaces (an
// error result sharing a multi-value assignment with a view) cannot.
func carriesAlias(t types.Type) bool {
	if t == nil {
		return true // unknown: stay conservative
	}
	switch t.Underlying().(type) {
	case *types.Basic, *types.Interface:
		return false
	}
	return true
}

func (r *aliasReplay) untaintIdent(e ast.Expr) {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok && id != nil && id.Name != "_" {
		if obj := objOf(r.pkg.Info, id); obj != nil {
			delete(r.tainted, obj)
		}
	}
}

// rootIdent unwraps selector/index/slice/star/paren chains to the base
// identifier, or nil.
func rootIdent(e ast.Expr) ast.Expr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

func (r *aliasReplay) exprTainted(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := objOf(r.pkg.Info, e)
		return obj != nil && r.tainted[obj]
	case *ast.SelectorExpr:
		return r.exprTainted(e.X)
	case *ast.IndexExpr:
		return r.exprTainted(e.X)
	case *ast.SliceExpr:
		return r.exprTainted(e.X)
	case *ast.StarExpr:
		return r.exprTainted(e.X)
	case *ast.UnaryExpr:
		return r.exprTainted(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if r.exprTainted(v) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		return r.callTainted(e)
	}
	return false
}

func (r *aliasReplay) callTainted(call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := objOf(r.pkg.Info, id).(*types.Builtin); ok {
			if b.Name() == "append" && len(call.Args) > 0 {
				// append([]byte(nil), v...) / append([]byte{}, v...) is the
				// sanctioned copy-out idiom: a fresh backing array.
				if isEmptySlice(call.Args[0]) {
					return false
				}
				return r.exprTainted(call.Args[0])
			}
			return false
		}
	}
	// Conversions copy for string(b) and []byte(s); be conservative only for
	// slice-to-slice identity conversions, which share backing.
	if tv, ok := r.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && r.exprTainted(call.Args[0]) {
			_, fromSlice := r.pkg.Info.TypeOf(call.Args[0]).Underlying().(*types.Slice)
			_, toSlice := tv.Type.Underlying().(*types.Slice)
			return fromSlice && toSlice
		}
		return false
	}
	fn := ResolveCallee(r.pkg.Info, call)
	if fn == nil {
		return false
	}
	if s := r.prog.Summary(fn); s != nil {
		return s.ReturnsAlias
	}
	return false
}

// isEmptySlice matches []T(nil) and []T{} first-arguments of append.
func isEmptySlice(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return len(e.Elts) == 0
	case *ast.CallExpr:
		if len(e.Args) == 1 {
			if id, ok := ast.Unparen(e.Args[0]).(*ast.Ident); ok && id.Name == "nil" {
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Fault-coverage replay.

// FaultReportFunc receives one pre-hook mutation description from FaultFacts.
type FaultReportFunc func(pos token.Pos, desc string)

type faultReplay struct {
	prog     *Program
	pkg      *Package
	report   FaultReportFunc
	derived  map[types.Object]bool
	hooked   bool
	mutates  bool
	start    bool
	hooks    bool
	reported bool
}

// FaultFacts walks fd in source order tracking whether receiver-reachable
// durable state is mutated before the fault injector's hook is consulted.
// report (may be nil) receives each unhooked mutation site.
func (prog *Program) FaultFacts(pkg *Package, fd *ast.FuncDecl, report FaultReportFunc) (mutates, mutStart, hooks bool) {
	r := &faultReplay{prog: prog, pkg: pkg, report: report, derived: map[types.Object]bool{}}
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			for _, name := range f.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					r.derived[obj] = true
				}
			}
		}
	}
	if len(r.derived) == 0 {
		return false, false, false // plain functions mutate no receiver
	}
	var deferred []*ast.CallExpr
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return
		case *ast.DeferStmt:
			deferred = append(deferred, n.Call)
			return
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				walk(rhs)
			}
			r.faultAssign(n)
			return
		case *ast.IncDecStmt:
			if r.rooted(n.X) {
				r.mutation(n.Pos(), "receiver state mutated")
			}
			return
		case *ast.CallExpr:
			walk(n.Fun)
			for _, a := range n.Args {
				walk(a)
			}
			r.faultCall(n)
			return
		}
		for _, c := range directChildren(n) {
			walk(c)
		}
	}
	walk(fd.Body)
	for i := len(deferred) - 1; i >= 0; i-- {
		r.faultCall(deferred[i])
	}
	return r.mutates, r.start, r.hooks
}

func (r *faultReplay) mutation(pos token.Pos, desc string) {
	r.mutates = true
	if !r.hooked {
		r.start = true
		// One diagnostic per method: the first unhooked mutation is where the
		// missing hook belongs; later ones are downstream of the same gap.
		if r.report != nil && !r.reported {
			r.reported = true
			r.report(pos, desc)
		}
	}
}

func (r *faultReplay) rooted(e ast.Expr) bool {
	id := rootIdent(e)
	if id == nil {
		return false
	}
	ident, ok := id.(*ast.Ident)
	if !ok {
		return false
	}
	obj := objOf(r.pkg.Info, ident)
	return obj != nil && r.derived[obj]
}

// isInjectorField reports whether e selects a *fault.Injector field —
// installing the injector itself cannot be hooked.
func (r *faultReplay) isInjectorField(e ast.Expr) bool {
	t := r.pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == "Injector" && HasSuffixPath(n.Obj().Pkg().Path(), "internal/fault")
}

func (r *faultReplay) faultAssign(n *ast.AssignStmt) {
	for _, lhs := range n.Lhs {
		switch l := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if r.rooted(l.X) && !r.isInjectorField(l) {
				r.mutation(l.Pos(), "receiver state mutated")
			}
		case *ast.IndexExpr:
			if r.rooted(l.X) {
				r.mutation(l.Pos(), "receiver state mutated")
			}
		case *ast.StarExpr:
			if r.rooted(l.X) {
				r.mutation(l.Pos(), "receiver state mutated")
			}
		}
	}
	// f, ok := d.files[id]: locals bound from receiver state mutate the
	// receiver when written through.
	for i, lhs := range n.Lhs {
		var rhs ast.Expr
		switch {
		case len(n.Rhs) == len(n.Lhs):
			rhs = n.Rhs[i]
		case len(n.Rhs) == 1:
			rhs = n.Rhs[0]
		}
		if rhs == nil {
			continue
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && n.Tok == token.DEFINE {
			if obj := objOf(r.pkg.Info, id); obj != nil && r.rooted(rhs) {
				r.derived[obj] = true
			}
		}
	}
}

func (r *faultReplay) faultCall(call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := objOf(r.pkg.Info, id).(*types.Builtin); ok {
			switch b.Name() {
			case "delete":
				if len(call.Args) > 0 && r.rooted(call.Args[0]) {
					r.mutation(call.Pos(), "receiver map entry deleted")
				}
			case "copy":
				if len(call.Args) > 0 && r.rooted(call.Args[0]) {
					r.mutation(call.Pos(), "receiver memory overwritten")
				}
			}
			return
		}
	}
	// Method calls on the receiver chain: hooks and helper mutations
	// propagate through summaries.
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !r.rooted(sel.X) {
		return
	}
	fn := ResolveCallee(r.pkg.Info, call)
	if fn == nil {
		return
	}
	s := r.prog.Summary(fn)
	if s == nil {
		return
	}
	if s.Hooks {
		r.hooks = true
		r.hooked = true
		return
	}
	if s.Mutates {
		if s.MutStart {
			r.mutation(call.Pos(), fmt.Sprintf("call to %s mutates device state", fn.Name()))
		} else {
			r.mutates = true
			// The callee hooks before its own mutations.
			r.hooks = true
			r.hooked = true
		}
	}
}
