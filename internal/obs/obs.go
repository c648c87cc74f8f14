// Package obs is the observability layer: a small metrics registry
// with Prometheus text rendering and HTTP request logging middleware.
// Campaign job records and the DPCS policy's decisions and transitions
// are spans (internal/obs/tracez).
//
// The package is a leaf: it imports only the standard library, so every
// subsystem (runner, the cmd harnesses) can depend on it without
// cycles. The metric observation paths are allocation-free once a
// series handle is resolved (asserted by tests via
// testing.AllocsPerRun).
package obs
