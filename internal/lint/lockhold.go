package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Lockhold flags blocking operations performed while an mvcc vertex/stripe
// lock is held. The lock table's deadlock-avoidance story is that lock
// waits are either timeout-bounded (transactions, TryLockCtx) or
// one-vertex-at-a-time (compaction, apply) — and that nothing ever parks a
// goroutine while holding a stripe: a channel wait, a disk.Backend call or
// a second blocking Lock under a held stripe is the deadlock shape the
// morsel compaction slices were carefully written to avoid (copy under the
// lock, I/O and Yield pacing outside it).
//
// The analysis is lexical and per-function: a window opens at a
// LockTable.Lock/TryLock/TryLockCtx call and closes at a lexically later
// Unlock/UnlockStripe in the same function body; a deferred Unlock keeps
// the window open to the end of the function. Blocking operations inside a
// window are findings. Functions that return while holding (the
// transaction work phase) are responsible for their own callees — the
// analyzer does not track locks across calls, it polices the common
// single-function shape.
var Lockhold = &Analyzer{
	Name: "lockhold",
	Run:  runLockhold,
}

type lockEvent struct {
	pos  token.Pos
	kind int    // acquire / release / block
	desc string // for block events
}

const (
	evAcquire = iota
	evRelease
	evBlock
)

func runLockhold(pass *Pass) {
	for _, f := range pass.Files {
		// Analyze each function body (including each function literal) as
		// its own scope.
		var bodies []*ast.BlockStmt
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					bodies = append(bodies, fn.Body)
				}
			case *ast.FuncLit:
				bodies = append(bodies, fn.Body)
			}
			return true
		})
		for _, body := range bodies {
			lockholdScope(pass, body)
		}
	}
}

// lockholdScope sweeps one function body's events in source order with a
// hold-depth counter.
func lockholdScope(pass *Pass, body *ast.BlockStmt) {
	var events []lockEvent
	addBlock := func(pos token.Pos, desc string) {
		events = append(events, lockEvent{pos: pos, kind: evBlock, desc: desc})
	}
	inDefer := make(map[*ast.CallExpr]bool)

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate scope, analyzed on its own
		case *ast.DeferStmt:
			inDefer[n.Call] = true
		case *ast.SendStmt:
			addBlock(n.Pos(), "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				addBlock(n.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			addBlock(n.Pos(), "select")
			return false // the comm clauses are part of the select wait
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					addBlock(n.Pos(), "range over channel")
				}
			}
		case *ast.CallExpr:
			classifyLockholdCall(pass, n, inDefer[n], &events)
		}
		return true
	})

	// Stable: a blocking Lock call appends a block event then an acquire at
	// the same position, and that order must survive the sort (the block is
	// judged against locks already held, not the one it acquires).
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	depth := 0
	var acquiredAt token.Pos
	for _, ev := range events {
		switch ev.kind {
		case evAcquire:
			if depth == 0 {
				acquiredAt = ev.pos
			}
			depth++
		case evRelease:
			if depth > 0 {
				depth--
			}
		case evBlock:
			if depth > 0 {
				pass.Reportf(ev.pos,
					"%s while holding mvcc vertex/stripe lock acquired at %s; release the lock before blocking",
					ev.desc, pass.Fset.Position(acquiredAt))
			}
		}
	}
}

// classifyLockholdCall turns a call into acquire/release/block events.
func classifyLockholdCall(pass *Pass, call *ast.CallExpr, deferred bool, events *[]lockEvent) {
	fn := callee(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	switch {
	case isMethodOn(fn, "mvcc", "LockTable", "Lock"):
		// A blocking acquire: deadlock fuel if another stripe is already
		// held (stripe collisions make "different vertices" no guarantee).
		*events = append(*events,
			lockEvent{pos: call.Pos(), kind: evBlock, desc: "nested blocking LockTable.Lock"},
			lockEvent{pos: call.Pos(), kind: evAcquire})
	case isMethodOn(fn, "mvcc", "LockTable", "TryLock", "TryLockCtx"):
		// Timeout-bounded acquires are the sanctioned deadlock-avoidance
		// path; they open a hold window but are not themselves findings.
		*events = append(*events, lockEvent{pos: call.Pos(), kind: evAcquire})
	case isMethodOn(fn, "mvcc", "LockTable", "Unlock", "UnlockStripe"):
		if !deferred { // deferred unlock = held until function end
			*events = append(*events, lockEvent{pos: call.Pos(), kind: evRelease})
		}
	case isPkgFunc(fn, "time", "Sleep"):
		*events = append(*events, lockEvent{pos: call.Pos(), kind: evBlock, desc: "time.Sleep"})
	case isMethodOn(fn, "sync", "WaitGroup", "Wait"):
		*events = append(*events, lockEvent{pos: call.Pos(), kind: evBlock, desc: "sync.WaitGroup.Wait"})
	case isMethodOn(fn, "mvcc", "Epochs", "WaitRead"):
		*events = append(*events, lockEvent{pos: call.Pos(), kind: evBlock, desc: "epoch wait (Epochs.WaitRead)"})
	case isDiskCall(fn):
		*events = append(*events, lockEvent{pos: call.Pos(), kind: evBlock, desc: "disk I/O (" + fn.Name() + ")"})
	}
}

// isDiskCall reports whether fn is declared in a package whose final path
// element is "disk" — the Backend seam and its helpers — or is a method on
// a type declared there (covers disk.Backend interface methods).
func isDiskCall(fn *types.Func) bool {
	if fn.Pkg() != nil && pkgPathBase(fn.Pkg().Path()) == "disk" {
		return true
	}
	if named := recvNamed(fn); named != nil && named.Obj().Pkg() != nil {
		return pkgPathBase(named.Obj().Pkg().Path()) == "disk"
	}
	return false
}
