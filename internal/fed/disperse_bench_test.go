package fed

import (
	"testing"
	"time"

	"ptffedrec/internal/data"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
)

// benchDisperseTrainer builds a mid-size LightGCN-server trainer with one
// round of real uploads, mirroring the scalability profile's dispersal shape.
func benchDisperseTrainer(b *testing.B) *Trainer {
	b.Helper()
	p := data.Profile{Name: "bench-disperse", NumUsers: 6000, NumItems: 900,
		Interactions: 90000, ZipfExponent: 1.05, Clusters: 8, ClusterBias: 0.7, MinPerUser: 5}
	d := data.Generate(p, 5)
	sp := d.Split(rng.New(1), 0.2)
	cfg := DefaultConfig(models.KindLightGCN)
	cfg.ClientModel = models.KindMF
	cfg.Dim = 16
	cfg.Rounds = 2
	cfg.ClientEpochs = 1
	cfg.ServerEpochs = 1
	tr, err := NewTrainer(sp, cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr.RunRound(0)
	tr.RunRound(1)
	tr.EvaluateServer()
	return tr
}

// BenchmarkDisperse measures the dispersal engines head to head on the same
// warmed server state: the per-client scalar path against the round-scoped
// multi-user batched path. Both iterate every client serially, so the ratio
// is the single-worker engine gain; the scalability table's disperse-scalar
// row shows it end to end.
func BenchmarkDisperse(b *testing.B) {
	b.Run("scalar", func(b *testing.B) {
		tr := benchDisperseTrainer(b)
		plan := tr.server.buildDispersalPlan()
		scratch := &disperseScratch{}
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			// conf+hard consumes no randomness, so the trainer passes no
			// stream; the benchmark mirrors that.
			for u := 0; u < tr.split.NumUsers; u++ {
				var tgt disperseTarget
				tgt, scratch.excl = tr.server.disperseTargetInto(u, scratch.excl)
				tr.server.disperse(tgt, nil, plan, scratch)
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		tr := benchDisperseTrainer(b)
		plan := tr.server.buildDispersalPlan()
		sc := newDisperseBatchScratch()
		numUsers := tr.split.NumUsers
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			for lo := 0; lo < numUsers; lo += disperseBatchClients {
				hi := lo + disperseBatchClients
				if hi > numUsers {
					hi = numUsers
				}
				slots := sc.slots[:hi-lo]
				for i := lo; i < hi; i++ {
					slots[i-lo].tgt, sc.excls[i-lo] = tr.server.disperseTargetInto(i, sc.excls[i-lo])
					slots[i-lo].ds = nil
				}
				tr.server.disperseBatch(slots, plan, sc)
			}
		}
	})
}

// BenchmarkRoundEval measures the eval+dispersal overlap: each op is one
// round with a server evaluation, run as RunRound followed by EvaluateServer
// (sequential) or as RunRoundEval (overlapped, which falls back to the
// sequential order at GOMAXPROCS 1). tail-s/op is the dispersal+eval tail
// alone — Disperse plus the eval's wall on the sequential side, the
// DisperseEvalWall phase on the overlapped side — since client training
// dominates the round. Both sides must produce identical stats.
func BenchmarkRoundEval(b *testing.B) {
	var want []RoundStats
	for _, overlapped := range []bool{false, true} {
		name := "sequential"
		if overlapped {
			name = "overlapped"
		}
		b.Run(name, func(b *testing.B) {
			tr := benchDisperseTrainer(b)
			tr.ResetPhaseSeconds()
			var got []RoundStats
			var evalSecs float64
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				round := tr.cfg.Rounds + n
				if overlapped {
					rs, _ := tr.RunRoundEval(round)
					got = append(got, rs)
					continue
				}
				rs := tr.RunRound(round)
				start := time.Now()
				res := tr.EvaluateServer()
				evalSecs += time.Since(start).Seconds()
				rs.Recall, rs.NDCG, rs.Evaluated = res.Recall, res.NDCG, true
				got = append(got, rs)
			}
			b.StopTimer()
			tail := tr.PhaseSeconds().Disperse + evalSecs
			if overlapped {
				tail = tr.PhaseSeconds().DisperseEvalWall
			}
			b.ReportMetric(tail/float64(b.N), "tail-s/op")
			if want == nil {
				want = got
			}
			for i := range got {
				if i < len(want) && got[i] != want[i] {
					b.Fatalf("round %d: %s stats %+v != sequential %+v", got[i].Round, name, got[i], want[i])
				}
			}
		})
	}
}
