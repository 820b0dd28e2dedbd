// Package flow provides the maximum-flow engines of the combinatorial
// offline speed-scaling algorithm (Section 2 of the paper), one Dinic per
// arithmetic:
//
//   - PhaseNet (phasenet.go): float64 Dinic over exactly the scheduler's
//     network G(J, m, s), source -> job -> interval -> sink with each job
//     reaching a contiguous window of intervals, stored as per-job
//     windows and per-interval job lists instead of an edge list.
//     internal/opt solves every round and emission of a float phase on
//     it, and every feasibility probe, cap-search wave and ScheduleAtCap
//     flow. It takes its levels from the sink and hands back the
//     co-reachable set its last BFS already labelled.
//   - RatGraph (rational.go): the same Dinic over exact math/big.Rat
//     arithmetic, on any network. The exact engine builds one for every
//     round and solves it from zero flow.
//
// The plain float64 edge-list Dinic that PhaseNet is held to bit for
// bit, and the push-relabel solver of experiment E11, live in the
// reference package flowref, which only tests and internal/bench import.
//
// RatGraph stores the residual network as a single flat edge array with
// a CSR-style adjacency index (BuildCSR) built lazily on first solve:
// the forward edge created by AddEdge sits at an even index i, its
// reverse at i^1, and a vertex's incident edges occupy one contiguous
// adjOff[v]..adjOff[v+1] window of the index. Reset reuses every backing
// array.
//
// RatGraph's Dinic BFS stops as soon as it labels the sink: every vertex
// it would label afterwards sits at or beyond the sink's level, and
// since levels rise by one along every DFS step, no augmenting path
// passes through such a vertex. The augmenting paths, the per-edge flows
// and the AugPaths and BFSPasses counts are those of a BFS that expands
// every reachable vertex; EdgesScanned counts fewer edges.
package flow

// The package's tolerance ladder. Every float comparison in the solver
// stack derives from DefaultTolerance so the layers cannot silently
// disagree on what "equal" means: each rung is three decades looser than
// the one below, matching how error accumulates moving up the stack
// (per-edge residual arithmetic -> whole-solve acceptance tests ->
// cross-engine differential comparisons).
const (
	// DefaultTolerance is the residual-capacity threshold below which an
	// edge is considered saturated by the float64 solver, relative to the
	// largest capacity in the graph.
	DefaultTolerance = 1e-12

	// SolveTolerance is the relative slack of whole-solve decisions built
	// on top of the edge arithmetic: phase-acceptance tests in
	// internal/opt, feasibility probes, volume-depletion thresholds.
	SolveTolerance = DefaultTolerance * 1e3

	// DiffTolerance is the comparison slack for cross-engine checks
	// (float vs exact, PhaseNet vs flowref.Graph, Dinic vs push-relabel):
	// loose enough to absorb legitimately different rounding paths, tight
	// enough to catch real disagreement.
	DiffTolerance = SolveTolerance * 1e3
)

// InvariantViolation is the panic payload of the solver's internal
// invariant checks (derived capacities staying finite). Panicking —
// instead of returning an error through a dozen internal frames that
// have no way to continue — keeps the hot paths clean; the solver driver (internal/opt.runPhases)
// recovers the payload at its boundary and converts it into a typed
// error. Numeric distinguishes invariants that can fail through float64
// precision loss alone (retrying in exact arithmetic may succeed) from
// true programmer-bug invariants.
type InvariantViolation struct {
	Numeric bool   // float precision failure, not necessarily a bug
	Msg     string // what was violated
}

func (v *InvariantViolation) Error() string { return "flow: " + v.Msg }

// violate panics with an InvariantViolation.
func violate(numeric bool, msg string) {
	panic(&InvariantViolation{Numeric: numeric, Msg: msg})
}

// DinicOps counts the elementary operations of a Dinic max-flow run,
// for the observability layer (internal/obs) and the E11 ablation. The
// counts accumulate across MaxFlow calls on the same graph and reset
// with Reset.
type DinicOps struct {
	BFSPasses    int64 // level-graph constructions
	AugPaths     int64 // augmenting paths pushed
	EdgesScanned int64 // residual edges examined in BFS and DFS
}

// Add accumulates o into d (for aggregating over many solves).
func (d *DinicOps) Add(o DinicOps) {
	d.BFSPasses += o.BFSPasses
	d.AugPaths += o.AugPaths
	d.EdgesScanned += o.EdgesScanned
}

// Sub returns d minus o, for per-solve deltas on a reused graph.
func (d DinicOps) Sub(o DinicOps) DinicOps {
	return DinicOps{
		BFSPasses:    d.BFSPasses - o.BFSPasses,
		AugPaths:     d.AugPaths - o.AugPaths,
		EdgesScanned: d.EdgesScanned - o.EdgesScanned,
	}
}

// EdgeID identifies an edge added by AddEdge: the (even) index of its
// forward edge in the flat edge array.
type EdgeID int32
