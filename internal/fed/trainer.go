package fed

import (
	"fmt"
	"runtime"
	"time"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/data"
	"ptffedrec/internal/eval"
	"ptffedrec/internal/models"
	"ptffedrec/internal/par"
)

// RoundStats records one global round.
type RoundStats struct {
	Round        int
	Participants int
	Dropped      int     // clients that failed before uploading (FaultPlan)
	ClientLoss   float64 // mean local-training loss across participants
	ServerLoss   float64 // mean server batch loss
	AttackF1     float64 // mean Top Guess Attack F1 across uploads
	UploadBytes  int64   // total client→server bytes this round
	DispersBytes int64   // total server→client bytes this round
	Recall, NDCG float64 // server metrics (when evaluated)
	Evaluated    bool
}

// History is a full training run's trace.
type History struct {
	Rounds []RoundStats
	Final  eval.Result
	// MeanAttackF1 averages the attack over all rounds — the Table V figure.
	MeanAttackF1 float64
}

// PhaseSeconds is cumulative wall-clock per round phase across rounds — the
// per-phase breakdown the scalability experiment reports. It is
// deliberately kept out of RoundStats so timing jitter never enters the
// determinism contract on training traces.
type PhaseSeconds struct {
	ClientTrain float64 // parallel local training + upload construction
	Absorb      float64 // confidence counters + latest-view ingestion
	GraphBuild  float64 // adjacency/CSR rebuild (graph server models only)
	ServerTrain float64 // server-side SGD (Eq. 5)
	Disperse    float64 // per-client D̃ᵢ construction + encoding

	// Eval is the wall-clock of server evaluations issued inside
	// RunRoundEval. Both eval and dispersal only read the warmed, frozen
	// model, so RunRoundEval runs them concurrently: Eval overlaps Disperse
	// rather than extending the round.
	Eval float64

	// DisperseEvalWall is the wall-clock of the combined dispersal+eval tail
	// of overlapped rounds — at most Disperse+Eval, approaching
	// max(Disperse, Eval) when the overlap pays. Rounds without an overlapped
	// eval do not contribute.
	DisperseEvalWall float64
}

// Total sums the sequential round phases (Eval overlaps Disperse, so it is
// excluded; DisperseEvalWall is a combined measurement, not a phase).
func (p PhaseSeconds) Total() float64 {
	return p.ClientTrain + p.Absorb + p.GraphBuild + p.ServerTrain + p.Disperse
}

// Trainer orchestrates PTF-FedRec end to end (Algorithm 1), composing the
// two transport-agnostic halves in one process: a ClientHost running every
// user's client side and a RoundEngine running the server side. It is the
// deterministic reference the networked coordinator path is pinned against —
// same halves, loopback wire in between, bitwise-identical history.
type Trainer struct {
	cfg    Config
	split  *data.Split
	host   *ClientHost
	engine *RoundEngine
	phases PhaseSeconds

	// server/clients/meter alias into the engine and host (tests and
	// the in-package benchmarks reach through them).
	server  *Server
	clients []*Client
	meter   *comm.Meter

	// evaluator caches the per-user candidate sets across rounds (the train
	// mask never changes), built lazily on the first evaluation. It is
	// read-only after construction, so the server and client evaluations —
	// and an eval overlapped with dispersal — can all share it.
	evaluator *eval.Evaluator
}

// NewTrainer wires up one client per user and the hidden server model.
func NewTrainer(sp *data.Split, cfg Config) (*Trainer, error) {
	host, err := NewClientHost(sp, cfg)
	if err != nil {
		return nil, err
	}
	engine, err := NewRoundEngine(sp.NumUsers, sp.NumItems, cfg)
	if err != nil {
		return nil, err
	}
	t := &Trainer{
		cfg:     cfg,
		split:   sp,
		host:    host,
		engine:  engine,
		server:  engine.server,
		clients: host.clients,
		meter:   engine.meter,
	}
	engine.sharePhases(&t.phases)
	return t, nil
}

// client returns participant i, constructing it on first use under
// Config.LazyClients.
func (t *Trainer) client(i int) *Client { return t.host.Client(i) }

// Clients exposes the participant list (tests, examples), materialising any
// clients a lazy trainer has not built yet.
func (t *Trainer) Clients() []*Client {
	for i := range t.clients {
		t.client(i)
	}
	return t.clients
}

// Server exposes the server (tests, examples).
func (t *Trainer) Server() *Server { return t.server }

// Meter exposes the communication meter.
func (t *Trainer) Meter() *comm.Meter { return t.meter }

// Config returns the active configuration.
func (t *Trainer) Config() Config { return t.cfg }

// PhaseSeconds returns the cumulative per-phase wall-clock since construction
// (or the last ResetPhaseSeconds).
func (t *Trainer) PhaseSeconds() PhaseSeconds { return t.phases }

// ResetPhaseSeconds zeroes the per-phase timers.
func (t *Trainer) ResetPhaseSeconds() { t.phases = PhaseSeconds{} }

// RunRound executes Algorithm 1's loop body once.
func (t *Trainer) RunRound(round int) RoundStats {
	stats, _ := t.runRound(round, false)
	return stats
}

// RunRoundEval is RunRound with the round's server evaluation overlapped with
// the dispersal phase: both only read the warmed, frozen server model, so
// they run concurrently after a shared warm step. The returned RoundStats has
// Recall/NDCG/Evaluated filled in. The trace and the evaluation result are
// bitwise-identical to RunRound followed by EvaluateServer.
func (t *Trainer) RunRoundEval(round int) (RoundStats, eval.Result) {
	stats, res := t.runRound(round, true)
	stats.Recall, stats.NDCG, stats.Evaluated = res.Recall, res.NDCG, true
	return stats, res
}

// runRound executes one round, optionally overlapping the server evaluation
// with dispersal: sample the cohort, run every selected client's local round
// in parallel (each goroutine writes only its own slot, so the round is
// deterministic for any worker count), close the round on the engine, and
// deliver the dispersals.
func (t *Trainer) runRound(round int, withEval bool) (RoundStats, eval.Result) {
	idx := t.engine.Select(round)

	phaseStart := time.Now()
	workers := par.Workers(t.cfg.Workers)
	outcomes := make([]ClientOutcome, len(idx))
	par.For(len(idx), workers, func(slot int) {
		outcomes[slot] = t.host.RunClientRound(round, idx[slot]).Outcome()
	})
	t.phases.ClientTrain += time.Since(phaseStart).Seconds()

	// When an evaluation is due it runs concurrently with dispersal inside
	// CloseRound: after the shared warm step both are pure reads of the
	// frozen server model (dispersal additionally builds per-client D̃ᵢ,
	// which eval never touches), so the overlap changes wall-clock only —
	// never results. The overlap is gated on GOMAXPROCS > 1: on a
	// single-core host the two phases just time-slice one thread and the
	// goroutine handoffs make the pair slower than running them back to
	// back, so eval falls back to a sequential run after the round (same
	// results, same phase accounting).
	var evalRes eval.Result
	var evalSecs float64
	var overlap func()
	if withEval && runtime.GOMAXPROCS(0) > 1 {
		overlap = func() {
			evalStart := time.Now()
			evalRes = t.EvaluateServer()
			evalSecs = time.Since(evalStart).Seconds()
		}
	}
	stats, dispersals := t.engine.CloseRound(round, outcomes, overlap)
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
	}
	return stats, evalRes
}

// Run executes the configured number of rounds (RunRounds) and a final
// evaluation.
func (t *Trainer) Run() (*History, error) {
	h := &History{Rounds: t.RunRounds()}
	for _, rs := range h.Rounds {
		h.MeanAttackF1 += rs.AttackF1
	}
	if len(h.Rounds) > 0 {
		h.MeanAttackF1 /= float64(len(h.Rounds))
	}
	h.Final = t.EvaluateServer()
	return h, nil
}

// RunRounds executes the configured rounds and returns their stats, without
// Run's final evaluation. The default schedule is the cross-round pipeline
// (runPipelined); Config.SequentialRounds retains the serialized baseline.
// Either way, periodic evaluations (Config.EvalEvery) overlap each round's
// dispersal phase, and the stats are bitwise-identical between the two
// schedules.
func (t *Trainer) RunRounds() []RoundStats {
	if !t.cfg.SequentialRounds {
		return t.runPipelined()
	}
	rounds := make([]RoundStats, 0, t.cfg.Rounds)
	for round := 0; round < t.cfg.Rounds; round++ {
		var rs RoundStats
		if t.cfg.EvalEvery > 0 && (round+1)%t.cfg.EvalEvery == 0 {
			rs, _ = t.RunRoundEval(round)
		} else {
			rs = t.RunRound(round)
		}
		rounds = append(rounds, rs)
	}
	return rounds
}

// splitEvaluator returns the trainer's round-cached evaluator, building the
// candidate cache on first use. The engine knob is applied once at build time
// — evaluation may run overlapped with dispersal, so the evaluator must not
// be reconfigured mid-flight. Evaluators installed via ShareEvaluator keep
// their own knob settings.
func (t *Trainer) splitEvaluator() *eval.Evaluator {
	if t.evaluator == nil {
		t.evaluator = t.engine.NewEvaluator(t.split)
	}
	return t.evaluator
}

// ShareEvaluator hands the trainer a prebuilt candidate cache for its split.
// The evaluator is read-only after construction, so several trainers over the
// same split (e.g. a benchmark sweep) can share one instead of each building
// the O(Users × NumItems) cache. Call before the first evaluation; do not
// call mid-round.
func (t *Trainer) ShareEvaluator(e *eval.Evaluator) { t.evaluator = e }

// EvaluateServer measures the hidden model's ranking quality — the quantity
// Table III reports for PTF-FedRec. Evaluation fans out over
// Config.EvalWorkers workers (0 = GOMAXPROCS) with metrics identical for any
// worker count, reusing the trainer's cached candidate sets every round.
func (t *Trainer) EvaluateServer() eval.Result {
	return t.engine.Evaluate(t.splitEvaluator())
}

// EvaluateClients measures the mean ranking quality of the client-side local
// models (each scoring through its own single-user universe). Parallel
// evaluation is safe because each user's scores come from that user's own
// model: no two workers ever touch the same client.
func (t *Trainer) EvaluateClients() eval.Result {
	scorer := models.ScorerFunc(func(u int, items []int) []float64 {
		return t.client(u).model.ScoreItems(0, items)
	})
	return t.splitEvaluator().Rank(scorer, t.cfg.EvalK, t.cfg.EvalWorkers)
}

// String summarises a round for logs.
func (rs RoundStats) String() string {
	s := fmt.Sprintf("round %2d: clients=%d clientLoss=%.4f serverLoss=%.4f attackF1=%.3f up=%s down=%s",
		rs.Round, rs.Participants, rs.ClientLoss, rs.ServerLoss, rs.AttackF1,
		comm.FormatBytes(float64(rs.UploadBytes)), comm.FormatBytes(float64(rs.DispersBytes)))
	if rs.Evaluated {
		s += fmt.Sprintf(" recall@k=%.4f ndcg@k=%.4f", rs.Recall, rs.NDCG)
	}
	return s
}
