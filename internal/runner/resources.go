package runner

import (
	"runtime"
	rm "runtime/metrics"
	"time"
)

// JobResources attributes measured cost to one job: where the
// campaign's CPU time and allocations actually went. CPU time is the
// worker thread's rusage delta (Linux; zero elsewhere), allocations are
// runtime/metrics heap deltas sampled on the worker goroutine — exact
// for the serial portions of a job, approximate for anything the job
// itself parallelises. The job span carries the same block as
// attributes (see endJobSpan), with its duration as the wall time.
type JobResources struct {
	// CPUMS is the worker OS thread's user+system CPU time over the
	// job (RUSAGE_THREAD delta under runtime.LockOSThread).
	CPUMS float64
	// Allocs and AllocBytes are heap allocation deltas over the job.
	Allocs     uint64
	AllocBytes uint64
	// CacheHit/CacheMiss attribute the resultstore probe: exactly one
	// is true when the job consulted the store, both false otherwise.
	CacheHit  bool
	CacheMiss bool
	// Transitions and Writebacks summarise the simulator's DPCS
	// activity when the job's output reports it (see ResourceCounter).
	Transitions int
	Writebacks  uint64
}

// ResourceCounter is implemented by job outputs that can report their
// simulator-side resource counts (DPCS transitions, writebacks) for
// the job's resource block. cpusim.Result implements it.
type ResourceCounter interface {
	ResourceCounts() (transitions int, writebacks uint64)
}

// resourceProbe measures one job's resource consumption for its
// JobResources block: thread CPU time via
// rusage deltas and heap allocation deltas via runtime/metrics. The
// probe pins the worker goroutine to its OS thread for the duration of
// the job so RUSAGE_THREAD attributes the kind function's CPU time to
// this job — exact for single-goroutine kinds (every simulator kind in
// this repository), an undercount for kinds that fan out internally.
//
// Allocation deltas are per-process heap counters sampled on the
// worker goroutine, so with several workers they include a slice of
// the neighbours' allocations; they are attribution hints, not exact
// accounting, and are documented as such (DESIGN.md §11).
type resourceProbe struct {
	cpuStart time.Duration
	cpuOK    bool
	allocs0  uint64
	bytes0   uint64
	samples  [2]rm.Sample
	// cacheMiss is set by runJob when a resultstore probe came back
	// empty (a hit is read off JobResult.Cached instead).
	cacheMiss bool
}

// startResourceProbe locks the OS thread and samples the baselines.
func startResourceProbe() *resourceProbe {
	runtime.LockOSThread()
	p := &resourceProbe{}
	p.samples[0].Name = "/gc/heap/allocs:objects"
	p.samples[1].Name = "/gc/heap/allocs:bytes"
	rm.Read(p.samples[:])
	if p.samples[0].Value.Kind() == rm.KindUint64 {
		p.allocs0 = p.samples[0].Value.Uint64()
	}
	if p.samples[1].Value.Kind() == rm.KindUint64 {
		p.bytes0 = p.samples[1].Value.Uint64()
	}
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
	rm.Read(p.samples[:])
	if p.samples[0].Value.Kind() == rm.KindUint64 {
		res.Allocs = p.samples[0].Value.Uint64() - p.allocs0
	}
	if p.samples[1].Value.Kind() == rm.KindUint64 {
		res.AllocBytes = p.samples[1].Value.Uint64() - p.bytes0
	}
	runtime.UnlockOSThread()
	return res
}
