package core

import "time"

// Deadline-aware search: SearchOptions can carry an absolute time
// budget (and a cancellation signal), and the frontier walk — over true
// bounds for the exact read, projected ones for CSSIA — polls it once
// per cluster pop, reading the
// wall clock only every deadlineCheckEvery pops so the hot path stays
// branch-cheap. When the budget fires the loop stops consuming clusters
// and the query returns the heap accumulated so far and reports the
// truncation through SearchOptions.Partial.
//
// Admissibility of the truncated answer: the k-NN heap is at every
// instant the exact top-k of the candidate set offered so far, and
// every offered candidate's distance is its true distance — truncation
// withholds candidates, it never corrupts kept ones. A partial answer
// is therefore a sound upper bound on the true k-NN distances (each
// returned distance ≥ its true rank's distance, result k's distance
// bounds the true k-th from above); it is only the completeness claim
// — "no unvisited object is closer" — that is surrendered, which is
// exactly what Partial flags.

// deadlineCheckEvery is the stride, in cluster pops, between wall-clock
// reads of a budgeted query. Cluster scans between two checks bound the
// budget overshoot; at benchmark cluster sizes that keeps the overshoot
// far below a millisecond while unbudgeted-path cost stays one untaken
// branch per pop.
const deadlineCheckEvery = 32

// budgetExpired is polled once per cluster pop by the search loops.
// It latches: once the deadline passes or the cancel channel fires,
// every later call reports true without touching the clock again.
func (sc *searchScratch) budgetExpired() bool {
	if !sc.budgeted {
		return false
	}
	if sc.partial {
		return true
	}
	n := sc.pops
	sc.pops++
	if n%deadlineCheckEvery != 0 {
		return false
	}
	if sc.cancel != nil {
		select {
		case <-sc.cancel:
			sc.partial = true
			return true
		default:
		}
	}
	if !sc.deadline.IsZero() && !time.Now().Before(sc.deadline) {
		sc.partial = true
		return true
	}
	return false
}
