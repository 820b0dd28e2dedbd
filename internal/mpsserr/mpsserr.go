// Package mpsserr defines the error taxonomy of the solver boundary.
// The sentinels live in an internal leaf package so that both the public
// mpss package and the internal solver layers (flow, opt, online) can
// wrap them without an import cycle; the public package re-exports them
// as mpss.ErrInvalidInstance etc.
//
// Classification contract:
//
//   - ErrInvalidInstance: the caller's input is malformed (NaN/Inf
//     fields, inverted windows, non-positive work, m < 1, empty or
//     duplicate-ID instances, invalid caps). Deterministic; retrying is
//     pointless.
//   - ErrInfeasible: the input is well-formed but no schedule satisfies
//     the requested constraints (speed caps, processor overload). Also
//     deterministic.
//   - ErrNumeric: the float64 fast path lost too much precision to
//     certify a decision (non-finite derived capacities, emptied
//     candidate sets, a certified flow that does not fit its
//     intervals). The same solve may succeed in exact rational
//     arithmetic; opt.Schedule retries it there before surfacing this.
//   - ErrInternal: a solver invariant that should hold for every input
//     was violated (a contained panic). Always a bug; the error text
//     carries the phase/round context for the report.
//   - ErrCanceled: the caller's context was canceled (or its deadline
//     expired) while the solve was in flight. The solver noticed at the
//     next phase/round or probe-wave boundary and unwound cleanly; the
//     solver arena stays reusable. Not retried by the exact fallback —
//     a canceled caller does not want the answer anymore.
package mpsserr

import "errors"

var (
	// ErrInvalidInstance marks errors caused by malformed caller input.
	ErrInvalidInstance = errors.New("mpss: invalid instance")
	// ErrInfeasible marks errors for well-formed but unsatisfiable inputs.
	ErrInfeasible = errors.New("mpss: infeasible")
	// ErrNumeric marks float64-path precision failures; the exact engine
	// may still succeed on the same input.
	ErrNumeric = errors.New("mpss: numeric failure")
	// ErrInternal marks contained solver-invariant violations (bugs).
	ErrInternal = errors.New("mpss: internal solver error")
	// ErrCanceled marks solves abandoned because the caller's context was
	// canceled or timed out mid-solve.
	ErrCanceled = errors.New("mpss: solve canceled")
)
