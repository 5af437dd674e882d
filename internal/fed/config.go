// Package fed implements PTF-FedRec (Algorithm 1 of the paper): the
// parameter transmission-free federated learning protocol in which clients
// and the central server exchange prediction scores instead of model
// parameters.
//
// Per global round t:
//
//  1. a fraction of clients Uᵗ is selected;
//  2. each selected client trains its local model on Dᵢ ∪ D̃ᵢ (its private
//     interactions plus the server's soft labels, Eq. 3), then uploads the
//     privacy-protected prediction set D̂ᵗᵢ (Eq. 4, §III-B2);
//  3. the server trains its hidden model on the received predictions
//     (Eq. 5) — rebuilding its interaction graph from them when the server
//     model is a graph recommender;
//  4. the server disperses confidence-filtered + hard soft labels D̃ᵢ back to
//     each client (Eq. 6, §III-B3).
package fed

import (
	"fmt"

	"ptffedrec/internal/models"
	"ptffedrec/internal/privacy"
)

// DisperseMode selects how the server builds D̃ᵢ — Table VII's ablation arms.
type DisperseMode string

// Dispersal strategies: the paper's confidence+hard construction and the
// ablations that replace either half (or both) with random items.
const (
	DisperseConfHard  DisperseMode = "conf+hard"   // paper default (Eq. 9)
	DisperseNoHard    DisperseMode = "-hard"       // hard half replaced by random
	DisperseNoConf    DisperseMode = "-confidence" // confidence half replaced by random
	DisperseAllRandom DisperseMode = "-confidence-hard"
)

// ParseDisperseMode converts a string (CLI flag) to a DisperseMode.
func ParseDisperseMode(s string) (DisperseMode, bool) {
	switch DisperseMode(s) {
	case DisperseConfHard, DisperseNoHard, DisperseNoConf, DisperseAllRandom:
		return DisperseMode(s), true
	}
	return "", false
}

// Config carries every protocol hyper-parameter. Zero values are invalid;
// build from DefaultConfig, which encodes §IV-D.
type Config struct {
	Rounds         int     // global rounds T (paper: 20)
	ClientFraction float64 // |Uᵗ|/|U| (paper: 1.0 — all clients per round)
	ClientEpochs   int     // local epochs L (paper: 5)
	ServerEpochs   int     // server epochs (paper: 2)
	ClientBatch    int     // client batch size (paper: 64)
	ServerBatch    int     // server batch size (paper: 1024)
	NegRatio       int     // negative sampling ratio (paper: 1:4)

	Dim    int     // embedding dimension (paper: 32)
	LR     float64 // Adam learning rate (paper: 1e-3)
	Layers int     // GNN propagation layers (paper: 3)

	ClientModel models.Kind // paper default: NeuMF on every client
	ServerModel models.Kind // the provider's hidden model

	Alpha    int          // |D̃ᵢ| (paper: 30)
	Mu       float64      // confidence vs hard portion µ (paper: 0.5)
	Disperse DisperseMode // Table VII ablation arm

	Privacy privacy.Config // §III-B2 upload mechanism

	// GraphThreshold is the uploaded-score cutoff above which the server
	// treats a triple as a soft-positive edge when rebuilding its graph.
	// The paper leaves this construction open; see DESIGN.md §3. It must lie
	// in (0, 1]: a zero cutoff would select zero-weight edges, which the
	// incremental graph engine cannot represent.
	GraphThreshold float64

	// GraphTopFrac, when positive, switches the server's edge selection to
	// an adaptive per-user rule: the top fraction of each upload by score
	// becomes soft-positive edges. This is robust to badly calibrated
	// client scores (early rounds, very sparse users); 0 keeps the absolute
	// threshold rule. Benchmarked by BenchmarkAblationServerGraph.
	GraphTopFrac float64

	// AttackPosFraction is the γ the curious server assumes in the Top
	// Guess Attack (paper: 0.2, from the 1:4 platform default).
	AttackPosFraction float64

	// EvalK is the ranking cutoff (paper: 20).
	EvalK int

	// EvalEvery computes server metrics every n rounds (0 = only at end).
	EvalEvery int

	// Workers bounds the round engine's parallelism (0 = GOMAXPROCS): client
	// local training, the server's absorb/training-set sharding, and the
	// dispersal loop all fan out over this many workers. Seeded runs produce
	// identical Histories for every worker count.
	Workers int

	// EvalWorkers bounds eval.Ranking's parallelism during EvaluateServer /
	// EvaluateClients (0 = GOMAXPROCS). Metrics are bitwise-identical for any
	// worker count.
	EvalWorkers int

	// TrainWorkers bounds the server model's intra-batch parallelism
	// (0 = GOMAXPROCS): every TrainBatch shards its forward/backward over
	// fixed-size gradient chunks computed on this many workers and merged in
	// chunk order, so seeded runs are bitwise-identical for every value.
	// Client models always train serially — they already run on the Workers
	// pool.
	TrainWorkers int

	// DisperseScalar forces dispersal through the per-client scalar engine
	// instead of the round-scoped multi-user batched engine (shared
	// eligibility cache + multi-user GEMM scoring). Results are
	// bitwise-identical either way — the knob exists as the timing baseline
	// for the scalability table's disperse-scalar row and for invariance
	// tests.
	DisperseScalar bool

	// MapUploadStore forces the server's per-user latest-upload state through
	// the original map-of-slices store instead of the flat sharded arena
	// (contiguous prediction slabs with a fixed-stride offset/length index).
	// Results are bitwise-identical either way — the knob is the
	// memory/timing baseline (the DisperseScalar pattern) for the scalability
	// table's map-store row and the upload-store invariance suite.
	MapUploadStore bool

	// FullGraphRebuild forces the server's per-round graph reconstruction
	// through the full O(all users, all edges) path — re-select every stored
	// user's edges, rebuild the Bipartite, and reconstruct the normalized
	// adjacencies from triplets — instead of the incremental engine that
	// maintains rows, degree vectors, and postings in O(changed users +
	// affected items). Results are bitwise-identical either way — the knob is
	// the timing baseline (the MapUploadStore pattern) for the scalability
	// table's full-graph row and the graph invariance suite.
	FullGraphRebuild bool

	// EligCacheEntries bounds the dispersal eligibility cache: at most this
	// many per-client eligible lists stay resident, recycled LRU, so
	// dispersal memory is budget × NumItems × 4 B instead of growing with
	// every client ever dispersed to. A miss rebuilds via the word walk —
	// any budget ≥ 1 is correct, smaller budgets just rebuild more.
	// 0 means the default budget (4096 entries).
	EligCacheEntries int

	// LazyClients constructs each client's state (model, rng streams) on its
	// first participation instead of all NumUsers clients up front. Lazily
	// built clients are bitwise-identical to eagerly built ones: everything a
	// client owns derives purely from (config, split, id) — the streams come
	// from DeriveN on the immutable root seed, never from consuming shared
	// generator state. The knob exists for huge-user profiles, where the
	// idle majority's models and generator states would dominate memory.
	LazyClients bool

	// EvalSingleUser forces server-side evaluation through the single-user
	// probability-domain engine (one fused ScoreBlockTopK selection per user)
	// instead of the multi-user batched logit engine. Results are
	// bitwise-identical either way — the knob exists as the timing baseline
	// for the scalability table's eval-single-user row and for invariance
	// tests, mirroring DisperseScalar.
	EvalSingleUser bool

	// SequentialRounds forces Trainer.RunRounds (and the networked coordinator's
	// round loop) through the fully serialized schedule — round r's server
	// phases and dispersal deliveries complete before any of round r+1's
	// clients train — instead of the cross-round pipeline that overlaps
	// round r+1's dependency-free client training with round r's
	// absorb/train/disperse. Results are bitwise-identical either way: a
	// client of round r+1 is gated on round r's dispersal delivery iff it
	// was in round r's cohort, cohorts are pure functions of the seed
	// (Select never consumes generator state), and every per-(round, client)
	// stream derives from the immutable root — so training order across
	// rounds cannot leak into results. The knob is the timing baseline (the
	// DisperseScalar pattern) for the scalability table's sequential and
	// net-sequential rows and the pipeline invariance suite.
	SequentialRounds bool

	// Faults optionally injects client dropouts and truncated uploads to
	// exercise the protocol's robustness (zero value = no faults).
	Faults FaultPlan

	// QuantizeScores ships prediction scores as uint8 buckets (9-byte
	// triples instead of 12), the compression extension suggested by the
	// paper's communication-efficiency discussion. Training on both sides
	// sees the quantized values, so the measured quality includes the
	// quantization error.
	QuantizeScores bool

	Seed uint64
}

// DefaultConfig returns the paper's hyper-parameters (§IV-D) with the given
// server model and NeuMF clients.
func DefaultConfig(serverModel models.Kind) Config {
	return Config{
		Rounds:            20,
		ClientFraction:    1.0,
		ClientEpochs:      5,
		ServerEpochs:      2,
		ClientBatch:       64,
		ServerBatch:       1024,
		NegRatio:          4,
		Dim:               32,
		LR:                1e-3,
		Layers:            3,
		ClientModel:       models.KindNeuMF,
		ServerModel:       serverModel,
		Alpha:             30,
		Mu:                0.5,
		Disperse:          DisperseConfHard,
		Privacy:           privacy.DefaultConfig(),
		GraphThreshold:    0.5,
		AttackPosFraction: 0.2,
		EvalK:             20,
		Seed:              1,
	}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.Rounds <= 0:
		return fmt.Errorf("fed: Rounds = %d", c.Rounds)
	case c.ClientFraction <= 0 || c.ClientFraction > 1:
		return fmt.Errorf("fed: ClientFraction = %v", c.ClientFraction)
	case c.ClientEpochs <= 0 || c.ServerEpochs <= 0:
		return fmt.Errorf("fed: epochs %d/%d", c.ClientEpochs, c.ServerEpochs)
	case c.ClientBatch <= 0 || c.ServerBatch <= 0:
		return fmt.Errorf("fed: batch sizes %d/%d", c.ClientBatch, c.ServerBatch)
	case c.NegRatio <= 0:
		return fmt.Errorf("fed: NegRatio = %d", c.NegRatio)
	case c.Dim <= 0:
		return fmt.Errorf("fed: Dim = %d", c.Dim)
	case c.Alpha < 0:
		return fmt.Errorf("fed: Alpha = %d", c.Alpha)
	case c.Mu < 0 || c.Mu > 1:
		return fmt.Errorf("fed: Mu = %v", c.Mu)
	case !(c.GraphThreshold > 0) || c.GraphThreshold > 1:
		return fmt.Errorf("fed: GraphThreshold = %v", c.GraphThreshold)
	case c.GraphTopFrac < 0 || c.GraphTopFrac > 1:
		return fmt.Errorf("fed: GraphTopFrac = %v", c.GraphTopFrac)
	case c.EvalK <= 0:
		return fmt.Errorf("fed: EvalK = %d", c.EvalK)
	case c.EligCacheEntries < 0:
		return fmt.Errorf("fed: EligCacheEntries = %d", c.EligCacheEntries)
	case c.Faults.DropoutRate < 0 || c.Faults.DropoutRate > 1:
		return fmt.Errorf("fed: Faults.DropoutRate = %v", c.Faults.DropoutRate)
	case c.Faults.TruncateRate < 0 || c.Faults.TruncateRate > 1:
		return fmt.Errorf("fed: Faults.TruncateRate = %v", c.Faults.TruncateRate)
	}
	if _, ok := ParseDisperseMode(string(c.Disperse)); !ok {
		return fmt.Errorf("fed: Disperse = %q", c.Disperse)
	}
	if _, ok := privacy.ParseDefense(string(c.Privacy.Defense)); !ok {
		return fmt.Errorf("fed: Privacy.Defense = %q", c.Privacy.Defense)
	}
	return nil
}
