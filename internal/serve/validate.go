package serve

import (
	"fmt"
	"math"
	"net/http"
	"strconv"

	"repro/internal/evolve"
	"repro/internal/graph"
)

// ParamError is a rejected reverse top-k query parameter: a message for the
// caller plus the HTTP status the serving layer maps it to. The CLI
// (cmd/rtkquery) and the HTTP handlers share ValidateQueryParams, so both
// front ends reject identical inputs with identical messages.
type ParamError struct {
	// Status is the HTTP status code (400 or 404) for the rejection.
	Status int
	msg    string
}

func (e *ParamError) Error() string { return e.msg }

// ValidateQueryParams checks a reverse top-k request (query node q, depth
// k) against a serving pair of n nodes whose index supports k up to maxK.
// It returns nil when the query is servable.
func ValidateQueryParams(q, k, n, maxK int) *ParamError {
	if q < 0 || q >= n {
		return &ParamError{
			Status: http.StatusNotFound,
			msg:    fmt.Sprintf("unknown node %d (graph has %d nodes)", q, n),
		}
	}
	if k < 1 || k > maxK {
		return &ParamError{
			Status: http.StatusBadRequest,
			msg:    fmt.Sprintf("k=%d outside [1,%d] supported by the index", k, maxK),
		}
	}
	return nil
}

// ModeApprox is the mode parameter value selecting the anytime approximate
// tier, and the CacheKey.Mode value its cached responses are filed under.
const ModeApprox = "approx"

// DefaultApproxEps is the undecided-fraction budget when mode=approx is
// requested without an explicit eps.
const DefaultApproxEps = 0.1

// ParseApproxParams validates the mode/eps/delta request parameters shared
// by the HTTP handlers and cmd/rtkquery. mode "" or "exact" selects the
// exact tier (eps/delta must then be absent); mode "approx" selects the
// anytime tier with eps defaulting to DefaultApproxEps in [0,1). The anytime
// tier is deterministic: delta, its former Monte Carlo failure budget, is
// still read because clients send delta=0, but only 0 is accepted. A zero eps
// is returned as +0, so "-0" and "0" share one cache key and one body.
// Parameters are passed as raw strings so the empty string can mean "unset".
func ParseApproxParams(mode, epsStr, deltaStr string) (approx bool, eps float64, perr *ParamError) {
	bad := func(format string, args ...any) (bool, float64, *ParamError) {
		return false, 0, &ParamError{Status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
	}
	switch mode {
	case "", "exact":
		if epsStr != "" || deltaStr != "" {
			return bad("eps/delta are only valid with mode=approx")
		}
		return false, 0, nil
	case ModeApprox:
	default:
		return bad("unknown mode %q (want exact or approx)", mode)
	}
	eps = DefaultApproxEps
	if epsStr != "" {
		v, err := strconv.ParseFloat(epsStr, 64)
		if err != nil {
			return bad("malformed eps=%q: %v", epsStr, err)
		}
		eps = v
	}
	if math.IsNaN(eps) || eps < 0 || eps >= 1 {
		return bad("eps=%g outside [0,1)", eps)
	}
	if eps == 0 {
		eps = 0 // -0 == 0, but it marshals as "-0"
	}
	if deltaStr != "" {
		delta, err := strconv.ParseFloat(deltaStr, 64)
		switch {
		case err != nil:
			return bad("malformed delta=%q: %v", deltaStr, err)
		case delta > 0:
			return bad("delta=%g: the Monte Carlo stage was removed and approx answers are deterministic; send delta=0 or omit it", delta)
		case delta != 0: // negative or NaN
			return bad("delta=%g: only delta=0 is accepted", delta)
		}
	}
	return true, eps, nil
}

// ValidateEdits checks an edit batch and its staleness threshold before any
// watermark is assigned: empty batches, non-finite or negative theta,
// negative node identifiers and non-finite, negative or subnormal weights
// are all rejected with errBadEdits (HTTP 400). Subnormal weights (below
// graph.MinNormalWeight) are refused because they can sum into an
// out-weight normalizer whose reciprocal overflows to +Inf, which would
// NaN-poison every proximity score downstream of the edited node — the
// graph layer rejects them too, but rejecting here keeps the bad batch out
// of the journal and returns a 400 instead of a failed maintenance batch.
// Every front end — the in-process API, the single-daemon handler and the
// fan-out coordinator — shares this helper, so all reject identical inputs
// with identical messages; it also matches what the write-ahead journal's
// reader accepts, so a batch that validates here always survives a journal
// round trip.
func ValidateEdits(edits []evolve.Edit, theta float64) error {
	if len(edits) == 0 {
		return fmt.Errorf("%w: no edits given", errBadEdits)
	}
	if math.IsNaN(theta) || math.IsInf(theta, 0) {
		return fmt.Errorf("%w: staleness threshold must be finite, got %g", errBadEdits, theta)
	}
	if theta < 0 {
		return fmt.Errorf("%w: negative staleness threshold %g", errBadEdits, theta)
	}
	for i, e := range edits {
		if e.From < 0 || e.To < 0 {
			return fmt.Errorf("%w: edit %d names negative node (%d→%d)", errBadEdits, i, e.From, e.To)
		}
		if math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) || e.Weight < 0 {
			return fmt.Errorf("%w: edit %d weight %g not a finite non-negative", errBadEdits, i, e.Weight)
		}
		if e.Weight != 0 && e.Weight < graph.MinNormalWeight {
			return fmt.Errorf("%w: edit %d weight %g below minimum %g (subnormal weights would zero a transition-column normalizer)", errBadEdits, i, e.Weight, graph.MinNormalWeight)
		}
	}
	return nil
}
