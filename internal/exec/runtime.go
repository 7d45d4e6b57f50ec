package exec

import (
	"sort"

	"hetgrid/internal/can"
	"hetgrid/internal/resource"
)

// ceState tracks the live occupancy of one CE.
type ceState struct {
	ce      resource.CE
	usedCor int // sum of required cores of running jobs using this CE
	runJobs int // running jobs using this CE
}

func (c *ceState) freeCores() int { return c.ce.Cores - c.usedCor }

// canHost reports whether a job needing cores on this CE could start
// right now: a dedicated CE must be completely idle; a non-dedicated CE
// needs enough free cores (jobs never share a core).
func (c *ceState) canHost(cores int) bool {
	if c.ce.Dedicated {
		return c.runJobs == 0 && cores <= c.ce.Cores
	}
	return cores <= c.freeCores()
}

// Runtime is the execution state of one grid node: its FIFO queue and
// the occupancy of each CE.
type Runtime struct {
	ID   can.NodeID
	Caps *resource.NodeCaps

	queue []*Job    // strictly FIFO: only the head may start
	ces   []ceState // parallel to Caps.CEs, so sorted by CE type
	run   []*Job    // running jobs, kept sorted by id
	// queuedJobs / queuedCores are per-CE-type tallies over the FIFO
	// queue, maintained incrementally on queue transitions so that
	// Score and DemandOn (called per node per aggregation refresh and
	// per score evaluation) are O(1) instead of O(queue length).
	queuedJobs  []int
	queuedCores []int
	// dirty marks membership in the cluster's dirty list (the delta
	// channel consumed by the scheduler's incremental aggregation);
	// maintained by Cluster.notifyLoad / Cluster.DrainDirty only.
	dirty bool
	done  int
	// busyCoreSeconds accumulates, over completed jobs, execution
	// wall-time × cores occupied — the per-node work metric used by
	// the load-imbalance statistics.
	busyCoreSeconds float64
}

func newRuntime(id can.NodeID, caps *resource.NodeCaps) *Runtime {
	r := &Runtime{ID: id, Caps: caps, ces: make([]ceState, len(caps.CEs))}
	for i, ce := range caps.CEs {
		r.ces[i].ce = ce
	}
	return r
}

// ceOf returns the state of the node's CE of type t, or nil.
func (r *Runtime) ceOf(t resource.CEType) *ceState {
	for i := range r.ces {
		if r.ces[i].ce.Type == t {
			return &r.ces[i]
		}
	}
	return nil
}

// QueueLen returns the number of jobs waiting in the FIFO queue.
func (r *Runtime) QueueLen() int { return len(r.queue) }

// RunningJobs returns the number of jobs currently executing. A job
// using several CEs counts once.
func (r *Runtime) RunningJobs() int { return len(r.run) }

// running returns the node's running jobs sorted by id. The returned
// slice is the runtime's own bookkeeping; callers must not mutate it or
// hold it across occupy/release.
func (r *Runtime) running() []*Job { return r.run }

// noteQueued maintains the per-type queue tallies as jobs enter
// (sign = +1) and leave (sign = -1) the FIFO queue.
func (r *Runtime) noteQueued(j *Job, sign int) {
	for _, q := range j.Req.CE {
		ti := int(q.Type)
		for len(r.queuedJobs) <= ti {
			r.queuedJobs = append(r.queuedJobs, 0)
			r.queuedCores = append(r.queuedCores, 0)
		}
		r.queuedJobs[ti] += sign
		r.queuedCores[ti] += sign * q.OccupiedCores()
	}
}

// FinishedJobs returns the number of jobs this node has completed.
func (r *Runtime) FinishedJobs() int { return r.done }

// BusyCoreSeconds returns the accumulated work this node has completed:
// per finished job, execution wall-time times the cores it occupied.
func (r *Runtime) BusyCoreSeconds() float64 { return r.busyCoreSeconds }

// totalCores sums a job's core occupancy across its required CEs.
func totalCores(j *Job) int {
	n := 0
	for _, q := range j.Req.CE {
		n += q.OccupiedCores()
	}
	return n
}

// IsFree reports whether the node is a free-node in the paper's sense:
// no running or waiting jobs at all, so any matching job starts
// immediately.
func (r *Runtime) IsFree() bool {
	return len(r.queue) == 0 && len(r.run) == 0
}

// IsAcceptable reports whether a job with requirements req would start
// without waiting if placed here now (Section III-B's acceptable node):
// the node statically satisfies the job, its FIFO queue is empty, and
// every required CE can host the job immediately.
func (r *Runtime) IsAcceptable(req resource.JobReq) bool {
	return resource.Satisfies(r.Caps, req) && r.StartsNow(req)
}

// StartsNow is IsAcceptable for a caller that already knows the node
// statically satisfies req: the FIFO queue is empty and every required
// CE can host the job immediately.
func (r *Runtime) StartsNow(req resource.JobReq) bool {
	return len(r.queue) == 0 && r.canStart(req)
}

// canStart checks CE availability only (queue discipline is the
// caller's concern), walking the type-sorted requirement list in step
// with the type-sorted CE states.
func (r *Runtime) canStart(req resource.JobReq) bool {
	ces := r.ces
	for _, q := range req.CE {
		for len(ces) > 0 && ces[0].ce.Type < q.Type {
			ces = ces[1:]
		}
		if len(ces) == 0 || ces[0].ce.Type != q.Type || !ces[0].canHost(q.OccupiedCores()) {
			return false
		}
	}
	return true
}

// Score is the job-assignment score of Section III-B for dominant CE
// type t: Equation 1 for dedicated CEs (queue size over clock),
// Equation 2 for non-dedicated CEs (core utilization over clock). Lower
// is better. Nodes lacking the CE type score +Inf-like.
func (r *Runtime) Score(t resource.CEType) float64 {
	c := r.ceOf(t)
	if c == nil {
		return 1e18
	}
	if c.ce.Dedicated {
		return resource.ScoreDedicated(c.runJobs+r.queuedOn(t), c.ce.Clock)
	}
	return resource.ScoreNonDedicated(c.usedCor+r.queuedCoresOn(t), c.ce.Cores, c.ce.Clock)
}

// queuedOn counts waiting jobs that require CE type t (O(1): read from
// the incrementally maintained tally).
func (r *Runtime) queuedOn(t resource.CEType) int {
	if int(t) < len(r.queuedJobs) {
		return r.queuedJobs[t]
	}
	return 0
}

// queuedCoresOn sums the cores waiting jobs will occupy on CE type t
// (O(1): read from the incrementally maintained tally).
func (r *Runtime) queuedCoresOn(t resource.CEType) int {
	if int(t) < len(r.queuedCores) {
		return r.queuedCores[t]
	}
	return 0
}

// DemandOn returns the load-aggregation inputs for CE type t: the cores
// required by running and waiting jobs (Equation 3's
// SumOfRequiredCores) and the CE's core count. ok is false when the
// node has no CE of that type.
func (r *Runtime) DemandOn(t resource.CEType) (requiredCores, cores int, ok bool) {
	c := r.ceOf(t)
	if c == nil {
		return 0, 0, false
	}
	return c.usedCor + r.queuedCoresOn(t), c.ce.Cores, true
}

// UtilizationOn reports the fraction of CE t's cores occupied by
// running jobs (queued demand excluded). ok is false when the node has
// no CE of that type.
func (r *Runtime) UtilizationOn(t resource.CEType) (util float64, ok bool) {
	c := r.ceOf(t)
	if c == nil {
		return 0, false
	}
	if c.ce.Cores == 0 {
		return 0, true
	}
	return float64(c.usedCor) / float64(c.ce.Cores), true
}

// CE returns the capability record of the node's CE of type t, or nil.
func (r *Runtime) CE(t resource.CEType) *resource.CE { return r.Caps.CE(t) }

// claim adds sign × the job's occupancy (+1 on start, -1 on release)
// to the CEs it uses. The job was admitted by Satisfies, so each
// required type has a state; both lists are type-sorted, so one forward
// walk finds them.
func (r *Runtime) claim(j *Job, sign int) {
	i := 0
	for _, q := range j.Req.CE {
		for r.ces[i].ce.Type < q.Type {
			i++
		}
		c := &r.ces[i]
		c.usedCor += sign * q.OccupiedCores()
		c.runJobs += sign
	}
}

// occupy reserves CEs for a starting job and enters it into the
// id-sorted running set.
func (r *Runtime) occupy(j *Job) {
	r.claim(j, +1)
	i := sort.Search(len(r.run), func(i int) bool { return r.run[i].ID >= j.ID })
	r.run = append(r.run, nil)
	copy(r.run[i+1:], r.run[i:])
	r.run[i] = j
}

// release frees a running job's CEs (on completion or preemption).
func (r *Runtime) release(j *Job) {
	r.claim(j, -1)
	i := sort.Search(len(r.run), func(i int) bool { return r.run[i].ID >= j.ID })
	if i < len(r.run) && r.run[i] == j {
		r.run = append(r.run[:i], r.run[i+1:]...)
	}
}
