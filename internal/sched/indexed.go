package sched

// Indexed fast paths for the built-in policies. Each ScheduleIndexed
// reproduces its policy's slice-path Schedule byte for byte — same
// assignment batch in the same order, same charged Ops — while only
// examining idle PEs and compatible tasks through the View's bitmap
// and heap queries. The slice implementations in sched.go and
// extensions.go remain the semantic definition; the differential tests
// (TestIndexedMatchesSlicePolicies here, TestIndexedMatchesSlicePath
// in internal/core) pin the equivalence for every policy across the
// synthetic platform grid and the Odroid's big.LITTLE pools.
//
// Everything is indexed by cost class (see ReadyMeta): within a class,
// speed and power are uniform by construction, so a task's cost on
// every member PE is one compiled number (meta.Costs[c]) and the
// EFT-family per-class decompositions are exact on any configuration —
// there is no cost-non-uniform fallback left to fall back to.
//
// Charged-ops recipes (derived from the slice scans), with n the
// window length:
//
//	FRFS:     P + per task: failed idle probes below the match + 1,
//	          or the whole idle pool when nothing supports it.
//	          Tail: idle × (tasks left).
//	MET:      P + the window's choice-list lengths (View.choices).
//	EFT:      P + n·eftPairWeight·P + per task: placed/32.
//	          Tail of k: rescanOps(placed+k) − rescanOps(placed) when
//	          every window task has a live class, else placed/32 per
//	          task with one AND deciding whether placed advances.
//	RANDOM:   P + n·P.
//	FRFS-RQ:  P + P per task while spare queue capacity remains.
//	EFT-RQ:   P + eftPairWeight·P per task while capacity remains.
//	EFT-PWR:  P + n·eftPairWeight·P + per task: its idle candidate count.
//
// Saturation exit: FRFS, MET, EFT, RANDOM and EFT-PWR place only on
// idle PEs and the call's idle snapshot only shrinks, so they leave the
// window loop once View.canPlace turns false — no window task's
// ClassMask meets a class with an idle PE left (usually: nothing is
// idle). Terms independent of the walk are charged up front and the
// tails above stand in for the unwalked tasks; none of those could be
// assigned, draw from RANDOM's generator or be read back from EFT's
// tentative table, so batch and Ops equal the full walk's.

import (
	"math/bits"

	"repro/internal/vtime"
)

// ScheduleIndexed implements IndexedPolicy: the FRFS probe order is
// "lowest-index idle supporting PE", so each ready task resolves to
// one bitmap scan plus a popcount for the charged failed probes.
func (FRFS) ScheduleIndexed(now vtime.Time, v *View) Result {
	res := Result{Assignments: newAssignments()}
	res.Ops += v.numPEs() // availability check per resource handler
	v.beginIdleScratch()
	ready := v.Ready()
	meta := v.metas()
	ti := 0
	for open := v.canPlace(v.allClasses); open && ti < len(ready); ti++ {
		pi := v.minIdleOfMask(meta[ti].ClassMask)
		if pi < 0 {
			// Every idle PE is probed and none supports the task.
			res.Ops += v.scr.idleTot
			continue
		}
		res.Ops += v.idleRankBelow(pi) + 1
		res.Assignments = append(res.Assignments, Assignment{TaskIndex: ti, PEIndex: pi})
		open = !v.takeIdle(pi) || v.canPlace(v.allClasses)
	}
	// Idle PEs that no window task supports (an idle accelerator behind
	// a CPU-only backlog) are still probed in full by every task left.
	res.Ops += v.scr.idleTot * (len(ready) - ti)
	return res
}

// ScheduleIndexed implements IndexedPolicy: the minimum-cost classes
// are compiled into the ready metadata (every class of MET's chosen
// type), so each task is one min-idle mask lookup.
func (MET) ScheduleIndexed(now vtime.Time, v *View) Result {
	res := Result{Assignments: newAssignments()}
	// A cost comparison per platform entry of every ready task.
	res.Ops += v.numPEs() + v.choices
	v.beginIdleScratch()
	meta := v.metas()
	for ti, open := 0, v.canPlace(v.allClasses); open && ti < len(meta); ti++ {
		// An empty METMask is a minimum-cost platform with no PEs in
		// this configuration: the task waits, as on the slice path.
		if pi := v.minIdleOfMask(meta[ti].METMask); pi >= 0 {
			res.Assignments = append(res.Assignments, Assignment{TaskIndex: ti, PEIndex: pi})
			open = !v.takeIdle(pi) || v.canPlace(v.allClasses)
		}
		// Unassigned tasks simply wait for a PE of their MET type.
	}
	return res
}

// ScheduleIndexed implements IndexedPolicy. EFT's candidate set per
// task decomposes by cost class: the best idle PE of a class is its
// lowest-index one (all share the finish now+cost), and the best
// busy/tentatively-placed PE is the per-class heap minimum over
// (tentative, index); the global winner is the lexicographic minimum
// (finish, index) across both kinds — exactly the slice scan's
// first-strict-minimum in PE order. Tentative placements re-enter the
// heaps, so later tasks observe them just like the slice path's
// tentative table. Class costs come compiled (meta.Costs), so the
// Odroid's split "cpu" type costs nothing extra.
func (EFT) ScheduleIndexed(now vtime.Time, v *View) Result {
	res := Result{Assignments: newAssignments()}
	P := v.numPEs()
	ready := v.Ready()
	meta := v.metas()
	// Status scan, plus one pair evaluation per PE for every ready task.
	res.Ops += P + len(ready)*eftPairWeight*P
	v.beginIdleScratch()
	open := v.canPlace(v.allClasses)
	if open {
		v.beginTentative(now)
	}
	placed, ti := 0, 0
	for ; open && ti < len(ready); ti++ {
		// The reference implementation's tentative-placement rescan
		// (see EFT.Schedule).
		res.Ops += placed / 32
		costs := meta[ti].Costs
		bestPE := -1
		var bestFinish vtime.Time
		bestIdle := false
		for m := meta[ti].ClassMask & v.allClasses; m != 0; m &= m - 1 {
			cc := bits.TrailingZeros64(m)
			cost := vtime.Duration(costs[cc])
			if pi := v.minIdleOfClass(cc); pi >= 0 {
				f := now.Add(cost)
				if bestPE == -1 || f < bestFinish || (f == bestFinish && pi < bestPE) {
					bestPE, bestFinish, bestIdle = pi, f, true
				}
			}
			if at, pi, ok := v.peekBusyMin(cc); ok {
				f := at.Add(cost)
				if bestPE == -1 || f < bestFinish || (f == bestFinish && pi < bestPE) {
					bestPE, bestFinish, bestIdle = pi, f, false
				}
			}
		}
		if bestPE < 0 {
			continue
		}
		placed++
		if bestIdle {
			res.Assignments = append(res.Assignments, Assignment{TaskIndex: ti, PEIndex: bestPE})
			open = !v.takeIdle(bestPE) || v.canPlace(v.allClasses)
		}
		// Busy best: the task waits but its tentative placement
		// influences later decisions. Assigned best: the PE joins the
		// busy set with its committed finish. Either way the PE's
		// tentative advances to bestFinish.
		v.setTentative(bestPE, bestFinish)
	}
	// The unwalked tail owes only its rescan charges. A task counts as
	// placed when one of its classes is live; if the census shows every
	// window task has one, the k charges are consecutive terms of one sum.
	if k := len(ready) - ti; k > 0 {
		live := v.liveClasses()
		if v.windowMeeting(live) == len(ready) {
			res.Ops += rescanOps(placed+k) - rescanOps(placed)
		} else {
			for ; ti < len(ready); ti++ {
				res.Ops += placed / 32
				if meta[ti].ClassMask&live != 0 {
					placed++
				}
			}
		}
	}
	return res
}

// rescanOps is the sum of i/32 over 0 <= i < n: EFT's rescan charge
// for n consecutive placements.
func rescanOps(n int) int {
	q, r := n/32, n%32
	return 16*q*(q-1) + r*q
}

// ScheduleIndexed implements IndexedPolicy: RANDOM's candidate list is
// the index-ordered idle supporting PEs, so the draw resolves to a
// k-th-set-bit select. The generator is consumed exactly as the slice
// path does (one Intn per task with candidates), keeping seeded runs
// identical.
func (r *Random) ScheduleIndexed(now vtime.Time, v *View) Result {
	res := Result{Assignments: newAssignments()}
	meta := v.metas()
	// Status scan, plus a candidate scan over every PE per ready task.
	res.Ops += v.numPEs() * (1 + len(meta))
	v.beginIdleScratch()
	for ti, open := 0, v.canPlace(v.allClasses); open && ti < len(meta); ti++ {
		mask := meta[ti].ClassMask
		n := v.idleCountOfMask(mask)
		if n == 0 {
			continue
		}
		pi := v.kthIdleOfMask(mask, r.rng.Intn(n))
		res.Assignments = append(res.Assignments, Assignment{TaskIndex: ti, PEIndex: pi})
		open = !v.takeIdle(pi) || v.canPlace(v.allClasses)
	}
	return res
}

// ScheduleIndexed implements IndexedPolicy: FRFSQ's shortest-queue
// pick is a (load, index) minimum over per-(class, load) buckets.
func (q FRFSQ) ScheduleIndexed(now vtime.Time, v *View) Result {
	depth := int32(q.Depth)
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	if depth > maxBucketDepth {
		return q.Schedule(now, v.Ready(), v.pes)
	}
	res := Result{Assignments: newAssignments()}
	P := v.numPEs()
	res.Ops += P
	free := v.beginLoadBuckets(depth)
	ready := v.Ready()
	meta := v.metas()
	for ti := 0; ti < len(ready) && free > 0; ti++ {
		res.Ops += P
		best := v.minLoadOfMask(meta[ti].ClassMask, depth)
		if best < 0 {
			continue
		}
		res.Assignments = append(res.Assignments, Assignment{TaskIndex: ti, PEIndex: best})
		v.bumpLoadBucket(best, depth)
		free--
	}
	return res
}

// maxBucketDepth bounds the per-(class, load) bucket table; deeper
// reservation queues (never the DefaultQueueDepth) take the slice
// path.
const maxBucketDepth = 64

// ScheduleIndexed implements IndexedPolicy: EFTQ's per-class best is
// the heap minimum over (availability, index) of PEs with spare
// capacity (uniform class cost makes that the (finish, index) argmin);
// committed placements advance availability and re-enter the heap.
func (q EFTQ) ScheduleIndexed(now vtime.Time, v *View) Result {
	depth := int32(q.Depth)
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	res := Result{Assignments: newAssignments()}
	P := v.numPEs()
	res.Ops += P
	free := v.beginAvailHeaps(now, depth)
	ready := v.Ready()
	meta := v.metas()
	for ti := 0; ti < len(ready) && free > 0; ti++ {
		res.Ops += eftPairWeight * P
		costs := meta[ti].Costs
		best := -1
		var bestFinish vtime.Time
		var bestCost vtime.Duration
		for m := meta[ti].ClassMask & v.allClasses; m != 0; m &= m - 1 {
			cc := bits.TrailingZeros64(m)
			cost := vtime.Duration(costs[cc])
			if a, pi, ok := v.peekAvailMin(cc, depth); ok {
				f := a.Add(cost)
				if best == -1 || f < bestFinish || (f == bestFinish && pi < best) {
					best, bestFinish, bestCost = pi, f, cost
				}
			}
		}
		if best < 0 {
			continue
		}
		res.Assignments = append(res.Assignments, Assignment{TaskIndex: ti, PEIndex: best})
		free--
		v.commitAvail(best, v.scr.avail[best].Add(bestCost), depth)
	}
	return res
}

// ScheduleIndexed implements IndexedPolicy: PowerEFT's candidates are
// idle supporting PEs only, all of a class sharing one (finish,
// energy) pair, so the slack window and energy minimum resolve per
// class; ties fall to the class whose lowest-index idle PE comes
// first, matching the slice scan's candidate order. On big.LITTLE the
// split "cpu" classes are exactly what makes the energy comparison
// meaningful — big and LITTLE carry different (cost, power) pairs.
func (p PowerEFT) ScheduleIndexed(now vtime.Time, v *View) Result {
	slack := p.Slack
	if slack < 1 {
		slack = 1
	}
	res := Result{Assignments: newAssignments()}
	ready := v.Ready()
	meta := v.metas()
	// Status scan, plus one pair evaluation per PE for every ready task.
	res.Ops += v.numPEs() * (1 + eftPairWeight*len(ready))
	v.beginIdleScratch()
	// An active power cap masks over-budget classes out of candidacy
	// (power is uniform within a class, so the cap resolves per class);
	// the per-pair charge below still covers every PE, matching the
	// slice scan that reads a PE's power before rejecting it.
	capMask := v.allClasses
	if p.cap > 0 {
		capMask = 0
		for c := 0; c < v.numClasses; c++ {
			if v.power[c] <= p.cap {
				capMask |= 1 << uint(c)
			}
		}
	}
	for ti, open := 0, v.canPlace(capMask); open && ti < len(ready); ti++ {
		mask := meta[ti].ClassMask & v.allClasses & capMask
		costs := meta[ti].Costs
		var bestFinish vtime.Time = -1
		nCands := 0
		for m := mask; m != 0; m &= m - 1 {
			cc := bits.TrailingZeros64(m)
			c := int(v.scr.idleCnt[cc])
			if c == 0 {
				continue
			}
			nCands += c
			f := now.Add(vtime.Duration(costs[cc]))
			if bestFinish < 0 || f < bestFinish {
				bestFinish = f
			}
		}
		if nCands == 0 {
			continue
		}
		res.Ops += nCands // slack-window scan over the candidate list
		limit := vtime.Time(float64(bestFinish-vtime.Time(0)) * slack)
		pick := -1
		bestE := 0.0
		for m := mask; m != 0; m &= m - 1 {
			cc := bits.TrailingZeros64(m)
			if v.scr.idleCnt[cc] == 0 {
				continue
			}
			cost := costs[cc]
			if now.Add(vtime.Duration(cost)) > limit {
				continue
			}
			e := float64(cost) * v.power[cc] * 1e-9
			pi := v.minIdleOfClass(cc)
			if pick == -1 || e < bestE || (e == bestE && pi < pick) {
				pick, bestE = pi, e
			}
		}
		if pick == -1 {
			pick = v.minIdleOfMask(mask)
		}
		res.Assignments = append(res.Assignments, Assignment{TaskIndex: ti, PEIndex: pick})
		open = !v.takeIdle(pick) || v.canPlace(capMask)
	}
	return res
}
