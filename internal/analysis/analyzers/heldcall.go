package analyzers

import (
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Heldcall flags blocking operations reached while a mutex is held.
// Inside a critical section, the serve/cluster/durable layers may not
// — directly or down any synchronous call chain — perform:
//
//   - a network round-trip (any exported method on serve.Client; the
//     retrying client blocks for up to its full backoff budget),
//   - a send on a channel locally provable unbuffered (the send parks
//     until a receiver arrives — with a lock held, potentially
//     forever),
//   - a journal fsync ((*os.File).Sync, the durable layer's
//     persistence barrier; milliseconds per call on real disks).
//
// A blocked critical section stalls every other goroutine contending
// for the lock — under the cluster's lease ticks that turns a slow
// disk into a missed heartbeat and a spurious failover. The repo's
// discipline (PR 6) is to copy what is needed under the lock, release,
// then block; replicateAll and trySteal are the model citizens.
//
// Some short critical sections are intentionally durable — the journal
// serializes append+fsync under its own mutex by design — so findings
// are waivable with //lint:allow heldcall and a justification naming
// why the hold is deliberate.
var Heldcall = &analysis.Analyzer{
	Name: "heldcall",
	Doc: "flags blocking operations (serve.Client round-trips, unbuffered channel " +
		"sends, fsync) reached while a mutex is held",
	AppliesTo: func(path string) bool {
		return isUnder(path, "internal", "serve") ||
			isUnder(path, "internal", "cluster") ||
			isUnder(path, "internal", "durable") ||
			isUnder(path, "src", "heldcall")
	},
	NeedsProgram: true,
	Run:          runHeldcall,
}

func runHeldcall(pass *analysis.Pass) {
	prog := pass.Prog
	for _, fn := range prog.Nodes {
		if fn.Pkg != pass.Pkg {
			continue
		}
		for _, cs := range fn.Calls {
			if cs.Async {
				continue
			}
			held := prog.HeldAt(fn, cs.Pos)
			if len(held) == 0 {
				continue
			}
			if desc, ok := blockingPrimitive(cs); ok {
				pass.Report(cs.Pos, "%s while holding %s; copy state under the lock, release, then block (or waive with //lint:allow heldcall)",
					desc, held[0].Class.Key)
				continue
			}
			for _, t := range cs.Targets {
				if r := prog.ReachVia("heldcall", t, blockingPrimitive); r != nil {
					pass.Report(cs.Pos, "%s reached while holding %s (via %s); copy state under the lock, release, then block (or waive with //lint:allow heldcall)",
						r.Desc, held[0].Class.Key, strings.Join(r.Path[:len(r.Path)-1], " -> "))
					break
				}
			}
		}
	}
}

// blockingPrimitive classifies a call site as a blocking operation.
func blockingPrimitive(cs *analysis.CallSite) (string, bool) {
	if cs.SendUnbuffered {
		return "send on unbuffered channel", true
	}
	if cs.Callee == nil {
		return "", false
	}
	sig, ok := cs.Callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	pkgPath := named.Obj().Pkg().Path()
	switch {
	case pkgPath == "os" && named.Obj().Name() == "File" && cs.Callee.Name() == "Sync":
		return "fsync ((*os.File).Sync)", true
	case named.Obj().Name() == "Client" && isUnder(pkgPath, "internal", "serve") && cs.Callee.Exported():
		return "network round-trip (serve.Client." + cs.Callee.Name() + ")", true
	}
	return "", false
}
