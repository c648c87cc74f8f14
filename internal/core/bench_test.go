package core

import (
	"testing"

	"repro/internal/obs"
)

// benchInterval drives one steady-state policy interval: the hot path a
// simulation pays per sampling window.
func benchInterval(b *testing.B, sink obs.PolicySink) {
	r := newPolicyRig(b)
	r.pol.Start(nil)
	r.pol.Arm(0)
	r.ctrl.SetSink(sink)
	settleAtFloor(b, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < int(r.cfg.Interval); j++ {
			r.cache.Access(0x40, false)
			r.now += 2
		}
		r.pol.Tick(r.now, nil)
	}
}

func BenchmarkPolicyIntervalNoSink(b *testing.B)  { benchInterval(b, nil) }
func BenchmarkPolicyIntervalNopSink(b *testing.B) { benchInterval(b, obs.NopSink{}) }

func BenchmarkPolicyIntervalCollector(b *testing.B) {
	benchInterval(b, &obs.Collector{})
}
