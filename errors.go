package mpss

import (
	"mpss/internal/mpsserr"
)

// The package classifies every failure of a solver entry point into one
// of four sentinel errors, testable with errors.Is. The concrete error
// always wraps the sentinel together with human-readable detail (job ID,
// phase, round, offending value).
var (
	// ErrInvalidInstance marks input that violates the model before any
	// solving starts: NaN/Inf or non-positive volumes, deadlines at or
	// before releases, m < 1, empty or nil instances, duplicate job IDs.
	ErrInvalidInstance = mpsserr.ErrInvalidInstance

	// ErrInfeasible marks well-formed input that admits no feasible
	// schedule under the requested constraints (e.g. a speed cap too low
	// for some job's window, or an online run overloading m processors).
	ErrInfeasible = mpsserr.ErrInfeasible

	// ErrNumeric marks a floating-point precision failure inside the
	// float solver engine. The solver retries such failures internally
	// in exact rational arithmetic; callers only see ErrNumeric when that
	// retry failed too.
	ErrNumeric = mpsserr.ErrNumeric

	// ErrInternal marks a solver bug: an invariant the algorithm
	// guarantees was observed to fail, or a panic escaped an internal
	// layer and was contained at the solver boundary. Worth reporting.
	ErrInternal = mpsserr.ErrInternal

	// ErrCanceled marks a solve abandoned because the context given via
	// WithContext was canceled or its deadline expired mid-solve. The
	// solver unwinds at the next phase/round or probe-wave boundary; a
	// Solver session that had a call canceled stays valid for further
	// calls. CLIs map it to exit code 1.
	ErrCanceled = mpsserr.ErrCanceled
)

// ValidateInstance checks an instance against the strict input contract:
// non-nil and non-empty, m >= 1, every job with finite positive work, a
// finite window with Release < Deadline, and no duplicate job IDs.
// Instances built with NewInstance always pass; instances assembled by
// hand (struct literals, decoded JSON) should be run through it before
// solving. All failures wrap ErrInvalidInstance.
func ValidateInstance(in *Instance) error {
	return in.Validate()
}
