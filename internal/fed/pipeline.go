package fed

import (
	"runtime"
	"time"

	"ptffedrec/internal/eval"
	"ptffedrec/internal/par"
)

// Cross-round pipelined execution. Rounds are serialized end to end in the
// baseline schedule — select → client train → absorb/train/disperse →
// deliver — even though the dependency structure is far sparser: Select is a
// pure function of (seed, round), so round r+1's cohort is known before
// round r closes, and a client u in cohort(r+1) depends on round r only
// through the dispersal D̃ᵤ it receives there — which it receives iff
// u ∈ cohort(r). Everything u's round-(r+1) local step reads is otherwise
// client-local (its model, its split rows, its pure per-(round, client)
// streams), and the server phases never touch client state.
//
// runPipelined exploits that with a two-round double buffer:
//
//	round r   : [ uploads r ][ absorb/graph/train/disperse r ][ deliver r ]
//	round r+1 :              [ free wave (∉ cohort(r)) trains ][ gated wave trains ]
//
// The free wave of r+1 trains on the worker pool while the server closes
// round r; the gated wave (cohort(r+1) ∩ cohort(r)) trains only after round
// r's deliveries land. Upload absorption still happens round by round in
// cohort slot order, so the History is bitwise-identical to the sequential
// schedule for every model kind, worker count, and fault plan (pinned by the
// pipeline invariance suite; Config.SequentialRounds retains the baseline).
//
// On a single-core host the free wave runs inline before the server phases
// instead of on a goroutine — same order-independence argument, none of the
// time-slicing overhead (the GOMAXPROCS gate that PR 8 gave the eval
// overlap).

// runPipelined executes the configured rounds through the cross-round
// pipeline and returns the per-round stats. Periodic evaluations
// (Config.EvalEvery) overlap dispersal exactly as in RunRoundEval. It is
// RunRounds' default schedule.
func (t *Trainer) runPipelined() []RoundStats {
	rounds := make([]RoundStats, 0, t.cfg.Rounds)
	if t.cfg.Rounds <= 0 {
		return rounds
	}

	// mark[u] == r+1 records u ∈ cohort(r); generation stamping avoids
	// clearing between rounds. int32 keeps the 1M-user footprint at 4 MB.
	mark := make([]int32, t.split.NumUsers)

	idx := t.engine.Select(0)
	for _, u := range idx {
		mark[u] = 1
	}
	outcomes := make([]ClientOutcome, len(idx))
	start := time.Now()
	t.trainSlots(0, idx, outcomes, nil)
	t.phases.ClientTrain += time.Since(start).Seconds()

	concurrent := runtime.GOMAXPROCS(0) > 1
	for r := 0; r < t.cfg.Rounds; r++ {
		// Partition round r+1's cohort before closing round r: slots whose
		// user sat out round r have no inbound dispersal and train now.
		var nextIdx []int
		var nextOutcomes []ClientOutcome
		var freeSlots, gatedSlots []int
		var freeDone chan struct{}
		var freeSecs float64
		if r+1 < t.cfg.Rounds {
			nextIdx = t.engine.Select(r + 1)
			nextOutcomes = make([]ClientOutcome, len(nextIdx))
			for slot, u := range nextIdx {
				if mark[u] == int32(r+1) {
					gatedSlots = append(gatedSlots, slot)
				} else {
					freeSlots = append(freeSlots, slot)
				}
				mark[u] = int32(r + 2)
			}
			// Empty waves (e.g. every wave at ClientFraction 1.0, where each
			// next-round client sat in the current cohort) must not reach
			// trainSlots: a nil slot list there means "every slot".
			if len(freeSlots) > 0 {
				if concurrent {
					// The wave measures its own wall and the main goroutine
					// folds it into the shared phase totals after the join —
					// CloseRound writes t.phases concurrently.
					freeDone = make(chan struct{})
					go func() {
						waveStart := time.Now()
						t.trainSlots(r+1, nextIdx, nextOutcomes, freeSlots)
						freeSecs = time.Since(waveStart).Seconds()
						close(freeDone)
					}()
				} else {
					waveStart := time.Now()
					t.trainSlots(r+1, nextIdx, nextOutcomes, freeSlots)
					t.phases.ClientTrain += time.Since(waveStart).Seconds()
				}
			}
		}

		// Close round r, with the periodic evaluation overlapped into the
		// dispersal phase under the same GOMAXPROCS gate as RunRoundEval.
		withEval := t.cfg.EvalEvery > 0 && (r+1)%t.cfg.EvalEvery == 0
		var evalRes eval.Result
		var evalSecs float64
		var overlap func()
		if withEval && concurrent {
			overlap = func() {
				evalStart := time.Now()
				evalRes = t.EvaluateServer()
				evalSecs = time.Since(evalStart).Seconds()
			}
		}
		stats, dispersals := t.engine.CloseRound(r, outcomes, overlap)
		// Deliveries target round r's responders — disjoint from the free
		// wave's users (∉ cohort(r)), so they can land mid-wave.
		for _, d := range dispersals {
			t.host.Deliver(d.ID, d.Preds)
		}
		if withEval {
			if overlap == nil {
				evalStart := time.Now()
				evalRes = t.EvaluateServer()
				evalSecs = time.Since(evalStart).Seconds()
				t.phases.DisperseEvalWall += t.engine.lastDisperseSecs + evalSecs
			}
			t.phases.Eval += evalSecs
			stats.Recall, stats.NDCG, stats.Evaluated = evalRes.Recall, evalRes.NDCG, true
		}
		rounds = append(rounds, stats)

		if r+1 < t.cfg.Rounds {
			if freeDone != nil {
				<-freeDone
				t.phases.ClientTrain += freeSecs
			}
			if len(gatedSlots) > 0 {
				waveStart := time.Now()
				t.trainSlots(r+1, nextIdx, nextOutcomes, gatedSlots)
				t.phases.ClientTrain += time.Since(waveStart).Seconds()
			}
			idx, outcomes = nextIdx, nextOutcomes
		}
	}
	return rounds
}

// trainSlots runs the listed cohort slots' client rounds on the worker pool,
// each goroutine writing only its own outcome slot. A nil slots list trains
// every slot.
func (t *Trainer) trainSlots(round int, idx []int, outcomes []ClientOutcome, slots []int) {
	workers := par.Workers(t.cfg.Workers)
	if slots == nil {
		par.For(len(idx), workers, func(slot int) {
			outcomes[slot] = t.host.RunClientRound(round, idx[slot]).Outcome()
		})
		return
	}
	par.For(len(slots), workers, func(i int) {
		slot := slots[i]
		outcomes[slot] = t.host.RunClientRound(round, idx[slot]).Outcome()
	})
}
