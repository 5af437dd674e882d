package main

import (
	"fmt"

	"ptffedrec/internal/data"
	"ptffedrec/internal/fed"
	"ptffedrec/internal/models"
)

// testFrac is the held-out share of every user's interactions.
const testFrac = 0.2

// workload is one input set the benchmark runs: a dataset profile generated
// from the run's seed plus the few protocol settings that differ between
// workloads. Everything else comes from the shared config in (workload).config.
type workload struct {
	name string
	// why is the reason the workload exists; BENCHMARK.json carries the same
	// line.
	why string

	profile   string
	rounds    int
	fraction  float64 // Config.ClientFraction
	evalEvery int     // Config.EvalEvery (0 = final evaluation only)
	lazy      bool    // Config.LazyClients
	faults    fed.FaultPlan

	// loopback runs the rounds through coord.Coordinator and two
	// coord.Participants over a loopback TCP listener instead of fed.Trainer.
	loopback bool
}

// workloads are the benchmark's workloads. dense-6k and sparse-50k stress
// opposite ends of the in-process round (client training against server
// SGD); loopback-6k puts the same engine behind the HTTP transport.
var workloads = []workload{
	{
		name:      "dense-6k",
		why:       "6k users every round, eval every round: client training is the largest phase and nothing pipelines; moves with ClientHost, dispersal and eval, little with server SGD",
		profile:   data.LargeScaleSmall.Name,
		rounds:    3,
		fraction:  1,
		evalEvery: 1,
	},
	{
		name:     "sparse-50k",
		why:      "50k users, 10% lazy cohort, final eval only: server SGD is most of a round, the pipeline overlaps next-round clients, and a 760 MB candidate cache is half of set-up",
		profile:  data.LargeScale.Name,
		rounds:   3,
		fraction: 0.1,
		lazy:     true,
	},
	{
		name:     "loopback-6k",
		why:      "6k users, 30% cohort, 2% dropout/truncation; a coordinator and two participants on loopback TCP, so every upload crosses comm framing and one HTTP POST",
		profile:  data.LargeScaleSmall.Name,
		rounds:   6,
		fraction: 0.3,
		faults:   fed.FaultPlan{DropoutRate: 0.02, TruncateRate: 0.02},
		loopback: true,
	},
}

// lookupWorkload returns the named workload.
func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("perfbench: unknown workload %q", name)
}

// participants is the number of coord.Participants a loopback workload
// splits its users across.
const participants = 2

// config is the protocol config every workload shares: LightGCN server, MF
// clients, Dim 16, one client and one server epoch, client batch 32, server
// batch 8192, learning rate 0.1, and every worker pool at nproc. The program
// sees only this config, whose Seed is the workload seed, and the split
// generated from the same seed. No baseline knob (SequentialRounds, DisperseScalar,
// EvalSingleUser, MapUploadStore, FullGraphRebuild) is set.
func (w workload) config(seed uint64, nproc int) fed.Config {
	cfg := fed.DefaultConfig(models.KindLightGCN)
	cfg.ClientModel = models.KindMF
	cfg.Dim = 16
	cfg.ClientEpochs = 1
	cfg.ServerEpochs = 1
	cfg.ClientBatch = 32
	cfg.ServerBatch = 8192
	// At the paper's 1e-3 a few rounds leave the server ranking at chance
	// (Recall@20 near 20/items), so the quality metrics would measure noise.
	cfg.LR = 0.1
	cfg.Workers = nproc
	cfg.TrainWorkers = nproc
	cfg.EvalWorkers = nproc
	cfg.Rounds = w.rounds
	cfg.ClientFraction = w.fraction
	cfg.EvalEvery = w.evalEvery
	cfg.LazyClients = w.lazy
	cfg.Faults = w.faults
	cfg.Seed = seed
	if w.loopback {
		// Participants take Workers from the coordinator's config, so the
		// two of them together run nproc client threads. The coordinator's
		// absorb and dispersal pool shrinks with it; server SGD and eval keep
		// nproc through TrainWorkers and EvalWorkers.
		cfg.Workers = max(1, nproc/participants)
	}
	return cfg
}

// split generates the workload's dataset from the seed.
func (w workload) split(seed uint64) (*data.Split, error) {
	p, err := data.ProfileByName(w.profile)
	if err != nil {
		return nil, err
	}
	return data.StreamSplit(p, seed, testFrac), nil
}
