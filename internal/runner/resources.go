package runner

import (
	"runtime"
	"time"
)

// JobResources attributes measured cost to one job: where the
// campaign's CPU time actually went. CPU time is the worker thread's
// rusage delta (Linux; zero elsewhere). The job span carries the same
// block as attributes (see endJobSpan), with its duration as the wall
// time.
type JobResources struct {
	// CPUMS is the worker OS thread's user+system CPU time over the
	// job (RUSAGE_THREAD delta under runtime.LockOSThread).
	CPUMS float64
	// CacheHit/CacheMiss attribute the resultstore probe: exactly one
	// is true when the job consulted the store, both false otherwise.
	CacheHit  bool
	CacheMiss bool
	// Transitions, Writebacks and EnergyJ summarise the simulator's
	// DPCS activity and its simulated cache energy when the job's
	// output reports them (see ResourceCounter).
	Transitions int
	Writebacks  uint64
	EnergyJ     float64
}

// ResourceCounter is implemented by job outputs that can report their
// simulator-side resource counts (DPCS transitions, writebacks) and
// their simulated total cache energy for the job's resource block.
// cpusim.Result implements it.
type ResourceCounter interface {
	ResourceCounts() (transitions int, writebacks uint64)
	EnergyJ() float64
}

// resourceProbe measures one job's thread CPU time for its
// JobResources block via rusage deltas. The probe pins the worker
// goroutine to its OS thread for the duration of the job so
// RUSAGE_THREAD attributes the kind function's CPU time to this job —
// exact for single-goroutine kinds (every simulator kind in this
// repository), an undercount for kinds that fan out internally.
type resourceProbe struct {
	cpuStart time.Duration
	cpuOK    bool
	// cacheMiss is set by runJob when a resultstore probe came back
	// empty (a hit is read off JobResult.Cached instead).
	cacheMiss bool
}

// startResourceProbe locks the OS thread and samples the baseline.
func startResourceProbe() *resourceProbe {
	runtime.LockOSThread()
	p := &resourceProbe{}
	p.cpuStart, p.cpuOK = threadCPUTime()
	return p
}

// stop samples the end state, unpins the thread, and returns the
// attribution block.
func (p *resourceProbe) stop() *JobResources {
	res := &JobResources{CacheMiss: p.cacheMiss}
	if cpu, ok := threadCPUTime(); ok && p.cpuOK {
		res.CPUMS = float64((cpu - p.cpuStart).Microseconds()) / 1e3
	}
	runtime.UnlockOSThread()
	return res
}
