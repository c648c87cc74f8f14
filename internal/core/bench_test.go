package core

import (
	"io"
	"testing"

	"repro/internal/obs/tracez"
)

// benchInterval drives one steady-state policy interval: the hot path a
// simulation pays per sampling window.
func benchInterval(b *testing.B, sp *tracez.Span) {
	r := newPolicyRig(b)
	r.ctrl.SetSpan(sp)
	r.pol.Start(nil)
	r.pol.Arm(0)
	settleAtFloor(b, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steadyInterval(r)
	}
}

func BenchmarkPolicyIntervalNoSpan(b *testing.B) { benchInterval(b, nil) }

func BenchmarkPolicyIntervalSpan(b *testing.B) {
	benchInterval(b, tracez.New(io.Discard).StartRoot("job"))
}
