package strategy

import "arbloop/internal/telemetry"

// ConvexTelemetry counts how the convex solves across the process
// resolved: how many ran, and how many fell through the KKT certificate
// to the face enumeration. The counters are package-global — strategies
// are stateless values constructed ad hoc per scan, so per-instance
// metrics would fragment the picture; one process runs one solver
// workload.
//
// Every update is one wait-free atomic add on the per-loop solve path —
// nothing here allocates or takes a lock.
type ConvexTelemetry struct {
	// Solves counts convex solves attempted (profitable loops only; the
	// §IV zero-plan short-circuit doesn't reach the solver).
	Solves telemetry.Counter
	// Enumerations counts solves whose KKT certificate rejected the best
	// rotation. Each enumerates every face, unless the loop is too long
	// and the solve fails with ErrLoopTooLong.
	Enumerations telemetry.Counter
	// WarmHits and WarmMisses no longer advance: the exact solve takes no
	// warm start. They stay registered for readers of the metric.
	WarmHits, WarmMisses telemetry.Counter
	// Fallbacks no longer advances: the exact solve never substitutes
	// the MaxMax plan. It stays registered for readers of the metric.
	Fallbacks telemetry.Counter
	// NewtonIters and OuterIters no longer advance: the exact solve runs
	// no barrier iterations. They stay registered for readers of the
	// metrics.
	NewtonIters, OuterIters telemetry.Counter
}

var convexTelemetry ConvexTelemetry

// Telemetry returns the process-wide convex solver counters.
func Telemetry() *ConvexTelemetry { return &convexTelemetry }

// Register exposes the counters on reg under the arbloop_convex_*
// families.
func (t *ConvexTelemetry) Register(reg *telemetry.Registry) {
	reg.Counter("arbloop_convex_solves_total", "", "convex solves attempted on profitable loops", &t.Solves)
	reg.Counter("arbloop_convex_enumerations_total", "", "convex solves whose KKT certificate failed, so every face was enumerated", &t.Enumerations)
	reg.Counter("arbloop_convex_warm_starts_total", `outcome="hit"`, "cross-block warm starts (no longer advances)", &t.WarmHits)
	reg.Counter("arbloop_convex_warm_starts_total", `outcome="miss"`, "cross-block warm starts (no longer advances)", &t.WarmMisses)
	reg.Counter("arbloop_convex_fallbacks_total", "", "solves answered with the MaxMax plan instead of a barrier optimum (no longer advances)", &t.Fallbacks)
	reg.Counter("arbloop_convex_newton_iters_total", "", "cumulative Newton steps across barrier solves (no longer advances)", &t.NewtonIters)
	reg.Counter("arbloop_convex_outer_iters_total", "", "cumulative barrier (outer) steps across solves (no longer advances)", &t.OuterIters)
}
